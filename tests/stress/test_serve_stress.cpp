// Concurrent-client stress for the serving layer (TSan-targeted, like
// the rest of the stress module): many oversubscribed workers hammer one
// ServeEngine with mixed solve / effective-resistance traffic while the
// micro-batching combiner coalesces them into shared apply_block calls.
// Every concurrent answer must be bitwise equal to a serial replay of
// the same request — the combiner may change BATCH COMPOSITION, never
// bytes. Also covered: LRU eviction/refill under concurrency, the
// typed-error round trip (a bad request fails alone; batchmates still
// get their answers), graph reloads racing embedding(), and cache misses
// that factorize outside the engine lock (hits on other graphs never
// wait behind them; a failed build reaches every waiter and is retried).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "serve/serve_engine.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::serve {
namespace {

constexpr Index kOversubscribedThreads = 16;

graph::Graph grid(Index nx, Index ny) {
  return graph::make_grid2d(nx, ny).graph;
}

TEST(ServeStress, ConcurrentMixedTrafficIsBitwiseSerial) {
  const graph::Graph g = grid(14, 14);
  const Index n = g.num_nodes();
  constexpr Index kRequests = 96;

  // Deterministic request plan: every 3rd request is a solve, the rest
  // are resistance probes with varying pairs.
  struct Plan {
    bool is_solve;
    Index s, t;
  };
  std::vector<Plan> plan;
  plan.reserve(static_cast<std::size_t>(kRequests));
  for (Index i = 0; i < kRequests; ++i) {
    plan.push_back({i % 3 == 0, i % n, (i * 7 + 31) % n});
  }
  for (Plan& p : plan) {
    if (p.s == p.t) p.t = (p.t + 1) % n;
  }

  const auto rhs_for = [n](const Plan& p) {
    la::Vector rhs(static_cast<std::size_t>(n), 0.0);
    rhs[static_cast<std::size_t>(p.s)] = 1.0;
    rhs[static_cast<std::size_t>(p.t)] = -1.0;
    return rhs;
  };

  // Serial replay: width-1 engine, one thread, one request at a time.
  ServeOptions serial_options;
  serial_options.batch_width = 1;
  ServeEngine serial(serial_options);
  (void)serial.load_graph(g);
  std::vector<la::Vector> expected_solve(plan.size());
  std::vector<Real> expected_value(plan.size(), 0.0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].is_solve) {
      expected_solve[i] = serial.solve(rhs_for(plan[i]));
    } else {
      expected_value[i] = serial.effective_resistance(plan[i].s, plan[i].t);
    }
  }

  // Concurrent run against a batching engine, several times so batches
  // form with different compositions.
  for (int round = 0; round < 3; ++round) {
    ServeOptions options;
    options.batch_width = 8;
    options.flush_deadline_us = 100;
    ServeEngine engine(options);
    (void)engine.load_graph(g);

    std::vector<la::Vector> got_solve(plan.size());
    std::vector<Real> got_value(plan.size(), 0.0);
    parallel::parallel_for(
        0, static_cast<Index>(plan.size()), kOversubscribedThreads,
        [&](Index i) {
          const Plan& p = plan[static_cast<std::size_t>(i)];
          if (p.is_solve) {
            got_solve[static_cast<std::size_t>(i)] = engine.solve(rhs_for(p));
          } else {
            got_value[static_cast<std::size_t>(i)] =
                engine.effective_resistance(p.s, p.t);
          }
        });

    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].is_solve) {
        ASSERT_EQ(got_solve[i].size(), expected_solve[i].size());
        for (std::size_t k = 0; k < got_solve[i].size(); ++k) {
          ASSERT_EQ(got_solve[i][k], expected_solve[i][k])
              << "round " << round << " request " << i << " entry " << k;
        }
      } else {
        ASSERT_EQ(got_value[i], expected_value[i])
            << "round " << round << " request " << i;
      }
    }

    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requests, kRequests);
    EXPECT_EQ(stats.batched_columns, kRequests);  // every request served once
    EXPECT_EQ(stats.errors, 0);
    EXPECT_LE(stats.max_batch_width, options.batch_width);
  }
}

TEST(ServeStress, BadRequestsFailAloneAmongHealthyTraffic) {
  ServeOptions options;
  options.batch_width = 8;
  ServeEngine engine(options);
  (void)engine.load_graph(grid(10, 10));

  const Real expected = [&] {
    ServeOptions serial_options;
    serial_options.batch_width = 1;
    ServeEngine serial(serial_options);
    (void)serial.load_graph(grid(10, 10));
    return serial.effective_resistance(0, 99);
  }();

  std::atomic<int> typed_errors{0};
  std::atomic<int> wrong_errors{0};
  parallel::parallel_for(0, 64, kOversubscribedThreads, [&](Index i) {
    if (i % 4 == 0) {
      // Invalid pair: must come back as kBadRequest, nothing else.
      try {
        (void)engine.effective_resistance(5, 5);
        wrong_errors.fetch_add(1);
      } catch (const SglError& e) {
        (e.code() == ErrorCode::kBadRequest ? typed_errors : wrong_errors)
            .fetch_add(1);
      }
    } else {
      // Healthy probes keep getting exact answers throughout.
      const Real r = engine.effective_resistance(0, 99);
      if (r != expected) wrong_errors.fetch_add(1);
    }
  });
  EXPECT_EQ(typed_errors.load(), 16);
  EXPECT_EQ(wrong_errors.load(), 0);
  EXPECT_EQ(engine.stats().errors, 16);
}

TEST(ServeStress, LruEvictionAndRefillUnderConcurrency) {
  ServeOptions options;
  options.cache_capacity = 2;
  options.batch_width = 4;
  ServeEngine engine(options);

  const graph::GraphKey keys[3] = {
      engine.load_graph(grid(6, 6)),
      engine.load_graph(grid(7, 6)),
      engine.load_graph(grid(8, 6)),
  };
  const Index nodes[3] = {36, 42, 48};

  // Serial reference values, one engine per graph so each is a clean
  // single-graph run.
  Real expected[3];
  for (int k = 0; k < 3; ++k) {
    ServeOptions serial_options;
    serial_options.batch_width = 1;
    ServeEngine serial(serial_options);
    (void)serial.load_graph(grid(static_cast<Index>(6 + k), 6));
    expected[k] = serial.effective_resistance(0, nodes[k] - 1);
  }

  // Key-pinned workers interleave 3 graphs through a 2-entry cache,
  // forcing evictions and refills, while asserting every answer stays
  // exact. shared_ptr-held solvers make eviction safe mid-batch.
  std::atomic<int> mismatches{0};
  for (int round = 0; round < 4; ++round) {
    parallel::parallel_for(0, 24, kOversubscribedThreads, [&](Index i) {
      const int k = static_cast<int>(i % 3);
      const Real r = engine.effective_resistance(0, nodes[k] - 1, keys[k]);
      if (r != expected[k]) mismatches.fetch_add(1);
    });
  }
  EXPECT_EQ(mismatches.load(), 0);

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 0);
  EXPECT_GE(stats.cache_evictions, 1);  // 3 graphs through 2 slots
  EXPECT_EQ(stats.cache_misses, stats.cache_evictions + 2);
}

TEST(ServeStress, ReloadWhileEmbeddingKeepsTheRegisteredGraph) {
  // Reloading a registered key must leave the registered graph in place:
  // embedding() reads it outside the engine lock. Two graphs alternate as
  // the active one so the single-slot embedding cache keeps missing and
  // every embedding() call computes from the graph while reloads land.
  const graph::Graph a = grid(10, 10);
  const graph::Graph b = grid(11, 10);
  const auto reference = [](const graph::Graph& g) {
    ServeEngine serial;
    (void)serial.load_graph(g);
    return serial.embedding();
  };
  const spectral::Embedding ref_a = reference(a);
  const spectral::Embedding ref_b = reference(b);

  ServeEngine engine;
  (void)engine.load_graph(a);
  (void)engine.load_graph(b);
  std::atomic<int> mismatches{0};
  parallel::parallel_for(0, 48, kOversubscribedThreads, [&](Index i) {
    if (i % 3 == 0) {
      (void)engine.load_graph(a);  // a fresh copy under an existing key
    } else if (i % 3 == 1) {
      (void)engine.load_graph(b);
    } else {
      const spectral::Embedding e = engine.embedding();
      const spectral::Embedding& ref =
          e.u.rows() == a.num_nodes() ? ref_a : ref_b;
      if (e.u.data() != ref.u.data()) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().errors, 0);
}

TEST(ServeStress, WarmHitsCompleteWhileAnotherGraphFactorizes) {
  // A miss factorizes outside the engine lock, so hits on a warm graph
  // finish while another graph's (large) factorization is still running.
  // The factorization is nearly all of the miss request's time, so every
  // hit has to finish within the first half of that request; a hit that
  // waited for the factorization would finish near its end. The engine
  // runs single-threaded: the requests themselves occupy the pool here.
  using Clock = std::chrono::steady_clock;
  ServeOptions options;
  options.flush_deadline_us = 0;
  options.num_threads = 1;
  options.solver.num_threads = 1;
  ServeEngine engine(options);
  const graph::GraphKey small = engine.load_graph(grid(8, 8));
  const graph::GraphKey large = engine.load_graph(grid(300, 300));
  const Real expected = engine.effective_resistance(0, 63, small);

  constexpr Index kHitWorkers = 3;
  constexpr int kHitsPerWorker = 10;
  std::vector<Clock::time_point> finished(
      static_cast<std::size_t>(kHitWorkers) + 1);
  Clock::time_point miss_begin;
  std::atomic<int> wrong{0};
  std::atomic<int> timeouts{0};
  parallel::parallel_for(0, kHitWorkers + 1, kHitWorkers + 1, [&](Index i) {
    if (i == 0) {
      miss_begin = Clock::now();
      (void)engine.effective_resistance(0, 1, large);
      finished[0] = Clock::now();
      return;
    }
    // Start once the large graph's miss is counted: its build is then
    // under way (the count is taken before the build starts).
    const auto give_up = Clock::now() + std::chrono::seconds(120);
    while (engine.stats().cache_misses < 2) {
      if (Clock::now() > give_up) {
        timeouts.fetch_add(1);
        break;
      }
      std::this_thread::yield();
    }
    for (int k = 0; k < kHitsPerWorker; ++k) {
      if (engine.effective_resistance(0, 63, small) != expected)
        wrong.fetch_add(1);
    }
    finished[static_cast<std::size_t>(i)] = Clock::now();
  });
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  const auto miss_time = finished[0] - miss_begin;
  for (Index i = 1; i <= kHitWorkers; ++i) {
    EXPECT_LT(finished[static_cast<std::size_t>(i)] - miss_begin, miss_time / 2)
        << "hit worker " << i
        << " waited for the large graph's factorization";
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, kHitWorkers * kHitsPerWorker);
}

TEST(ServeStress, FailedFactorizationReachesEveryWaiterAndIsRetried) {
  // Every build throws (the AMG setup rejects theta > 1). Concurrent
  // misses on one key share a build, all of them get its error, and no
  // cache entry is left behind: the next request builds again.
  ServeOptions options;
  options.solver.method = solver::LaplacianMethod::kPcgAmg;
  options.solver.amg.theta = 2.0;
  ServeEngine engine(options);
  (void)engine.load_graph(grid(40, 40));

  std::atomic<int> failures{0};
  parallel::parallel_for(0, 16, kOversubscribedThreads, [&](Index) {
    try {
      (void)engine.effective_resistance(0, 1);
    } catch (const ContractViolation&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 16);
  const ServeStats before = engine.stats();
  EXPECT_GE(before.cache_misses, 1);
  EXPECT_LE(before.cache_misses, 16);
  EXPECT_EQ(before.cache_hits, 0);
  EXPECT_EQ(before.cache_evictions, 0);

  EXPECT_THROW((void)engine.effective_resistance(0, 1), ContractViolation);
  EXPECT_EQ(engine.stats().cache_misses, before.cache_misses + 1);
}

}  // namespace
}  // namespace sgl::serve
