// perfbench: the repository's end-to-end benchmark program. One run sets up
// a seeded TPC-H database, measures one workload for --seconds seconds,
// checks every answer and the durable state after reopen, and prints the
// metrics as the last line of stdout (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "database.h"
#include "dml.h"
#include "harness.h"
#include "queries.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Layout layout;
  int dop;
  int64_t memory_budget;  // query_memory_budget; 0 = the default (none)
  bool htap;              // writer, reader and mover run together
};

constexpr Workload kWorkloads[] = {
    {"tpch_serial", Layout::kUnsharded, 1, 0, false},
    {"tpch_sharded", Layout::kSharded, 2, 0, false},
    {"tpch_spill", Layout::kUnsharded, 1, 1 << 20, false},
    {"htap_durable", Layout::kUnsharded, 1, 0, true},
};

// Reopens in a traced run; storage.reopen_s is the fastest. An untraced
// run reopens once, for the durability check.
constexpr int kTracedReopens = 7;
// Share of --seconds the tpch_* workloads spend on queries; the refresh
// phase after it issues statements for the rest.
constexpr double kQueryShare = 0.8;

const char* const kQueryNames[] = {"q1", "q3", "q5", "q6", "q12",
                                   "orderkey_agg"};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Fail("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr || args.seconds <= 0 || args.data_dir.empty()) {
    Fail("usage: perfbench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> --data-dir <dir>");
  }
  return args;
}

// Sum of a registry family over all its label sets, e.g. the fsync wait
// nanoseconds of every table's WAL.
int64_t RegistrySum(const std::string& name, const std::string& point = "") {
  int64_t total = 0;
  for (const auto& s : vstore::MetricsRegistry::Global().Samples()) {
    if (s.name != name) continue;
    if (!point.empty() && s.label_value2 != point) continue;
    total += s.has_sum ? s.sum : s.value;
  }
  return total;
}

double P50(const std::vector<double>& v) { return Quantile(v, 0.50); }
double P99(const std::vector<double>& v) { return Quantile(v, 0.99); }

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const auto run_start = Clock::now();
  HostCalibration host;
  host.Start();
  Report report;
  Log("%s seed=%llu seconds=%g trace=%d", w.name,
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);

  // --- Set-up: generation, load, compression, first checkpoint ---------
  const std::string dir = args.data_dir + "/lineitem";
  const auto setup_start = Clock::now();
  vstore::tpch::Tables tables =
      vstore::tpch::Generate(kScaleFactor, args.seed);
  const auto generated = Clock::now();
  Database db = LoadDatabase(tables, w.layout, dir);
  const auto loaded = Clock::now();
  const double generate_s = MsBetween(setup_start, generated) / 1000;
  const double load_s = MsBetween(generated, loaded) / 1000;
  const int64_t row_groups = db.fact->MinRowGroupsPerShard();
  Guard(row_groups >= 4 * w.dop,
        "lineitem has " + std::to_string(row_groups) +
            " row groups per shard, fewer than 4 x dop");

  // --- Untimed preparation: answers, statement stream, write model ------
  std::unique_ptr<Answers> answers;
  if (!w.htap) answers = std::make_unique<Answers>(tables);
  const double write_seconds =
      w.htap ? args.seconds : args.seconds * (1 - kQueryShare);
  const int64_t statements = static_cast<int64_t>(write_seconds * kDmlRate);
  const std::vector<Statement> stmts =
      MakeStatements(*db.fact, tables.lineitem, statements, args.seed);
  Checksum model = ChecksumOf(tables.lineitem);
  tables = vstore::tpch::Tables();
  Log("set-up and preparation done after %.1f s",
      MsBetween(run_start, Clock::now()) / 1000);

  LoopConfig loop;
  loop.options.mode = vstore::ExecutionMode::kBatch;
  loop.options.dop = w.dop;
  loop.options.query_memory_budget = w.memory_budget;
  loop.trace = args.trace;
  loop.answers = answers.get();
  loop.fact = db.fact.get();
  loop.seed = args.seed;

  // --- Measured phase -----------------------------------------------------
  SyncFilesystem(args.data_dir);
  const int64_t wal_bytes0 = RegistrySum("vstore_wal_bytes");
  const int64_t fsync_ns0 = RegistrySum("vstore_wait_ns", "fsync");
  LoopResult reads;
  WriterResult writes;
  MoverResult mover;
  if (w.htap) {
    loop.thread_cpu = true;
    MoverHandoff handoff;
    std::thread mover_thread([&] {
      mover = RunMover(db.lineitem, db.durable, statements, &handoff);
    });
    std::thread writer_thread([&] {
      writes = RunWriter(db.fact.get(), stmts, &handoff);
    });
    reads = RunQueryLoop(*db.catalog, loop, [&] {
      std::lock_guard<std::mutex> lock(handoff.mu);
      return !handoff.writer_done;
    });
    writer_thread.join();
    mover_thread.join();
    if (!mover.error.empty()) Fail("mover pass failed: " + mover.error);
  } else {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(
                           args.seconds * kQueryShare * 1000));
    reads = RunQueryLoop(*db.catalog, loop,
                         [&] { return Clock::now() < deadline; });
    // Refresh phase: the same writer, with no reader and no mover.
    SyncFilesystem(args.data_dir);
    writes = RunWriter(db.fact.get(), stmts, nullptr);
  }
  const double wal_bytes_per_dml =
      static_cast<double>(RegistrySum("vstore_wal_bytes") - wal_bytes0) /
      static_cast<double>(statements);
  const double fsync_wait_ms =
      static_cast<double>(RegistrySum("vstore_wait_ns", "fsync") - fsync_ns0) /
      1e6;
  model += writes.applied;
  const double bytes_per_row = static_cast<double>(db.fact->StoredBytes()) /
                               static_cast<double>(db.fact->LiveRows());
  db = Database();  // closes the WAL

  // --- Reopen and durability check ----------------------------------------
  SyncFilesystem(args.data_dir);
  std::vector<double> reopen_s;
  Reopened reopened;
  for (int rep = 0; rep < (args.trace ? kTracedReopens : 1); ++rep) {
    reopened = Reopened();
    reopened = ReopenLineitem(w.layout, dir);
    reopen_s.push_back(reopened.open_s);
  }
  const Checksum recovered = QueryChecksum(*reopened.db.catalog);
  const bool durable_ok = recovered == model &&
                          reopened.db.fact->LiveRows() == model.rows;
  if (!durable_ok) {
    Log("durability check failed: model %s, reopened %s (live rows %lld)",
        model.ToString().c_str(), recovered.ToString().c_str(),
        static_cast<long long>(reopened.db.fact->LiveRows()));
  }
  const uint64_t records_replayed = reopened.records_replayed;
  reopened = Reopened();
  Log("measured phase and reopens done after %.1f s (reopens %.3f..%.3f s)",
      MsBetween(run_start, Clock::now()) / 1000, Quantile(reopen_s, 0),
      Quantile(reopen_s, 1));

  // --- Guards -------------------------------------------------------------
  auto spilled = [&](const char* q) {
    const std::vector<int64_t>& v = reads.queries[q].spill_bytes;
    int64_t spilling = 0;
    for (int64_t b : v) spilling += b > 0 ? 1 : 0;
    return std::make_pair(spilling, static_cast<int64_t>(v.size()));
  };
  if (w.memory_budget > 0) {
    for (const char* q : {"q3", "q5", "q12", "orderkey_agg"}) {
      auto [n, of] = spilled(q);
      Guard(of > 0 && n == of,
            std::string(q) + " did not spill under the budget");
    }
    for (const char* q : {"q1", "q6"}) {
      Guard(spilled(q).first == 0,
            std::string(q) + " spilled under the budget");
    }
  } else if (!w.htap && w.layout == Layout::kUnsharded) {
    for (const char* q : kQueryNames) {
      Guard(spilled(q).first == 0,
            std::string(q) + " spilled without a budget");
    }
  }
  if (w.htap) {
    // Not "every pass compresses a store": the engine's forced compaction
    // of the open delta store conflicts with an insert that lands during
    // its build, and in some runs every pass does. conflict_share reports
    // how often.
    Guard(!mover.pass_ms.empty(), "the mover never ran");
  }
  // The median, not a tail: a descheduled wake-up on a shared host is not
  // the generator falling behind its schedule.
  const double gap_us = 1e6 / kDmlRate;
  const double lag_p50 = P50(writes.lag_us);
  Guard(lag_p50 < gap_us,
        "writer generator lag p50 " + std::to_string(lag_p50) +
            " us is not below the " + std::to_string(gap_us) +
            " us statement gap");

  // --- Report -------------------------------------------------------------
  report.CountAttempts(reads.attempted, reads.failed);
  report.CountAttempts(statements, writes.failed);
  report.CountAttempts(1, durable_ok ? 0 : 1);

  std::vector<double> all_ms, all_cpu_ms;
  int64_t peak_bytes = 0;
  for (const char* q : kQueryNames) {
    const QuerySamples& s = reads.queries[q];
    all_ms.insert(all_ms.end(), s.wall_ms.begin(), s.wall_ms.end());
    all_cpu_ms.insert(all_cpu_ms.end(), s.cpu_ms.begin(), s.cpu_ms.end());
    peak_bytes = std::max(peak_bytes, s.peak_bytes);
    report.Info(std::string("samples.") + q,
                static_cast<double>(s.wall_ms.size()));
    report.Info(std::string("spilling_runs.") + q,
                static_cast<double>(spilled(q).first));
  }
  report.Info("samples.queries", static_cast<double>(all_ms.size()));
  report.Info("samples.dml", static_cast<double>(writes.latency_us.size()));
  report.Info("row_groups_per_shard_min", static_cast<double>(row_groups));
  report.Info("writer.lag_p50_us", lag_p50);
  report.Info("writer.lag_p99_us", P99(writes.lag_us));
  report.Info("mover.passes", static_cast<double>(mover.pass_ms.size()));
  report.Info("mover.stores_compressed",
              static_cast<double>(mover.stores_compressed));

  // Over every read of the run. Reported, not gated: they follow the
  // host's share of slow executions directly.
  report.Info("query_p50_ms", Quantile(all_ms, 0.50));
  report.Info("query_p90_ms", Quantile(all_ms, 0.90));
  // Over the wall time of the query rounds, less the benchmark's own
  // comparisons with the row engine's answers.
  report.Info("queries_per_s",
              static_cast<double>(all_ms.size()) /
                  ((reads.loop_ms - reads.check_ms) / 1000));
  report.Info("cpu_ms_per_query",
              Sum(all_cpu_ms) / static_cast<double>(all_cpu_ms.size()));
  report.Info("samples.reopens", static_cast<double>(reopen_s.size()));
  if (!args.trace) {
    report.Metric("setup_s", generate_s + load_s, "s");
    // The fastest execution, not the median: on the shared host this was
    // tuned on, the share of executions slowed by up to 1.7x drifts from
    // one execution, and one process, to the next, so a median follows
    // the host. Host noise only ever adds time, and an engine change
    // shifts the whole distribution, its fastest execution too. See
    // README, Host noise.
    for (const char* q : kQueryNames) {
      report.Metric(std::string(q) + "_ms",
                    Quantile(reads.queries[q].wall_ms, 0), "ms");
    }
    report.Metric("query_peak_mem_mb", MiB(peak_bytes), "MiB");
    report.Metric("stored_bytes_per_row", bytes_per_row, "B");
  } else {
    report.Metric("tpch.generate_s", generate_s, "s");
    report.Metric("storage.bulk_load_s", load_s, "s");
    double traced_ms = 0;
    double untraced_ms = 0;
    for (const char* q : kQueryNames) {
      QuerySamples& s = reads.queries[q];
      for (const LayerMetric& m : QueryLayerMetrics()) {
        report.Metric(std::string(m.prefix) + "." + q,
                      Median(s.layers[m.prefix]), m.unit);
      }
      traced_ms += Median(s.traced_wall_ms);
      untraced_ms += Median(s.wall_ms);
    }
    report.Metric("storage.scan.q1cols_ms", Median(reads.q1cols_ms), "ms");
    for (int k = 0; k < kNumKinds; ++k) {
      const std::string kind = KindName(static_cast<Statement::Kind>(k));
      report.Metric("storage." + kind + "_us.p50", P50(writes.service_us[k]),
                    "us");
      report.Metric("storage." + kind + "_us.p99", P99(writes.service_us[k]),
                    "us");
    }
    // CPU, not latency: a statement's latency is mostly its fsync. The
    // kernel's share of the fsync is in it.
    report.Metric("storage.dml_cpu_us", Quantile(writes.cpu_us, 0.1), "us");
    report.Metric("storage.reopen_s", Quantile(reopen_s, 0), "s");
    report.Metric("storage.dml_p50_us", P50(writes.latency_us), "us");
    report.Metric("storage.dml_p99_us", P99(writes.latency_us), "us");
    report.Metric("storage.wal_bytes_per_dml", wal_bytes_per_dml, "B");
    report.Metric("storage.fsync_wait_ms", fsync_wait_ms, "ms");
    report.Metric("storage.mover.pass_ms", Median(mover.pass_ms), "ms");
    report.Metric("storage.mover.pass_cpu_ms", Median(mover.pass_cpu_ms), "ms");
    report.Metric("storage.mover.rows_moved",
                  static_cast<double>(mover.rows_moved), "count");
    const int64_t attempts = mover.conflicts + mover.stores_compressed;
    report.Metric("storage.mover.conflict_share",
                  attempts > 0 ? static_cast<double>(mover.conflicts) /
                                     static_cast<double>(attempts)
                               : 0.0,
                  "share");
    report.Metric("storage.delta_rows_at_query", Median(reads.delta_rows),
                  "count");
    report.Metric("storage.recovery.records_replayed",
                  static_cast<double>(records_replayed), "count");
    report.Metric("bench.trace_overhead_pct",
                  untraced_ms > 0 ? (traced_ms / untraced_ms - 1) * 100 : 0,
                  "%");
  }
  host.Finish();
  report.Print(host);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
