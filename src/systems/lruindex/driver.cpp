#include "p4lru/systems/lruindex/driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4lru/common/stats.hpp"
#include "p4lru/sim/event_queue.hpp"

namespace p4lru::systems::lruindex {

DriverReport run_driver(const DriverConfig& cfg, DbServer& server,
                        IndexCache& cache) {
    if (cfg.threads == 0 || cfg.queries == 0) {
        throw std::invalid_argument("run_driver: zero threads/queries");
    }

    // One in-flight query per client thread; completion chains the next.
    // Every count comes from the step; the loop keeps only time.
    struct Loop {
        const DriverConfig& cfg;
        IndexCache& cache;
        const QueryStep step;
        trace::YcsbWorkload workload;
        TimeNs half;
        sim::EventQueue q{};
        LruIndexStats counts{};
        std::uint64_t issued = 0;
        TimeNs last_done = 0;
        TimeNs lock_free_at = 0;
        stats::Running latency_us{};

        void issue(TimeNs now) {
            if (issued >= cfg.queries) return;
            const std::uint64_t seq = issued++;
            const DbKey key = workload.next().key;
            // Client -> switch: the query pass; switch -> server.
            q.schedule(now + half, [this, key, t0 = now, seq] {
                const CacheHeader hdr = step.query(cache, key, counts);
                serve_at(q.now() + half, key, t0, hdr, seq, 0);
            });
        }

        /// Server attempt `k` of query `seq`: a refusal re-sends after
        /// retry_backoff(retry, k), a give-up completes the query.
        void serve_at(TimeNs when, DbKey key, TimeNs t0, CacheHeader hdr,
                      std::uint64_t seq, std::uint32_t k) {
            q.schedule(when, [this, key, t0, hdr, seq, k] {
                const TimeNs arrive = q.now();
                const Attempt a = step.attempt(seq, k, counts);
                if (a == Attempt::kRetry) {
                    serve_at(arrive + retry_backoff(cfg.retry, k), key, t0,
                             hdr, seq, k + 1);
                    return;
                }
                if (a == Attempt::kGiveUp) return complete(arrive + half, t0);
                const ServeResult res = step.serve(key, hdr, counts);
                TimeNs done;
                if (res.used_index && res.lock_time > 0) {
                    const TimeNs start = std::max(arrive, lock_free_at);
                    lock_free_at = start + res.lock_time;
                    done = start + res.lock_time + res.service_time;
                } else {
                    done = arrive + res.service_time;
                }
                // Server -> switch: the reply pass updates the cache.
                q.schedule(done + half, [this, key, t0, hdr, res] {
                    cache.reply(key, res.addr, hdr, q.now());
                    complete(q.now() + half, t0);
                });
            });
        }

        /// Switch -> client; completion issues the next query.
        void complete(TimeNs when, TimeNs t0) {
            q.schedule(when, [this, t0] {
                const TimeNs t_end = q.now();
                last_done = std::max(last_done, t_end);
                latency_us.add(static_cast<double>(t_end - t0) / 1000.0);
                issue(t_end);
            });
        }
    };

    Loop loop{.cfg = cfg,
              .cache = cache,
              .step = QueryStep(server, cfg.flaky, cfg.retry),
              .workload = trace::YcsbWorkload(cfg.workload),
              .half = cfg.net_delay / 2};
    for (std::size_t c = 0; c < cfg.threads; ++c) loop.issue(0);
    loop.q.run();

    DriverReport r{index_report(loop.counts)};
    r.avg_latency_us = loop.latency_us.mean();
    if (loop.last_done > 0) {
        r.throughput_ktps = static_cast<double>(loop.counts.ops) /
                            (static_cast<double>(loop.last_done) / 1e9) /
                            1e3;
    }
    return r;
}

}  // namespace p4lru::systems::lruindex
