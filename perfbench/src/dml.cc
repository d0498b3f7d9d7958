#include "dml.h"

#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/random.h"
#include "harness.h"
#include "storage/tuple_mover.h"

namespace perfbench {

using vstore::Value;

const char* KindName(Statement::Kind kind) {
  switch (kind) {
    case Statement::Kind::kInsert:
      return "insert";
    case Statement::Kind::kUpdate:
      return "update";
    case Statement::Kind::kDelete:
      return "delete";
  }
  return "?";
}

std::vector<Statement> MakeStatements(const FactTable& fact,
                                      const vstore::TableData& lineitem,
                                      int64_t n, uint64_t seed) {
  const vstore::Schema& schema = lineitem.schema();
  const size_t linenumber = static_cast<size_t>(schema.IndexOf("l_linenumber"));
  const size_t quantity = static_cast<size_t>(schema.IndexOf("l_quantity"));
  vstore::Random rng(seed);
  std::unordered_set<int64_t> targeted;
  auto next_target = [&] {
    for (;;) {
      const int64_t index = rng.Uniform(0, fact.LoadedRows() - 1);
      if (targeted.insert(index).second) return fact.LoadedRow(index);
    }
  };

  std::vector<Statement> stmts;
  stmts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Statement s;
    const int64_t draw = rng.Uniform(0, 9);
    s.kind = draw < 8 ? Statement::Kind::kInsert
                      : (draw == 8 ? Statement::Kind::kUpdate
                                   : Statement::Kind::kDelete);
    if (s.kind == Statement::Kind::kInsert) {
      s.row = lineitem.GetRow(rng.Uniform(0, lineitem.num_rows() - 1));
      // Line numbers 11..17 never occur in generated data.
      s.row[linenumber] = Value::Int64(s.row[linenumber].int64() + 10);
      s.row[quantity] = Value::Double(static_cast<double>(rng.Uniform(1, 50)));
    } else {
      s.target = next_target();
      vstore::Status st = fact.GetRow(s.target, &s.old_row);
      if (!st.ok()) Fail("read update/delete target: " + st.ToString());
      if (s.kind == Statement::Kind::kUpdate) {
        s.row = s.old_row;
        const int64_t q = static_cast<int64_t>(s.row[quantity].dbl());
        s.row[quantity] = Value::Double(static_cast<double>(q % 50 + 1));
      }
    }
    stmts.push_back(std::move(s));
  }
  return stmts;
}

WriterResult RunWriter(FactTable* fact, const std::vector<Statement>& stmts,
                       MoverHandoff* handoff) {
  WriterResult out;
  const auto gap = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / kDmlRate));
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < stmts.size(); ++i) {
    const Statement& s = stmts[i];
    const auto due = start + gap * static_cast<int64_t>(i);
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      out.lag_us.push_back(MsBetween(due, Clock::now()) * 1000);
    }

    const int64_t cpu0 = ThreadCpuNs();
    const auto call = Clock::now();
    vstore::Status st;
    switch (s.kind) {
      case Statement::Kind::kInsert:
        st = fact->Insert(s.row).status();
        break;
      case Statement::Kind::kUpdate:
        st = fact->Update(s.target, s.row);
        break;
      case Statement::Kind::kDelete:
        st = fact->Delete(s.target);
        break;
    }
    const auto done = Clock::now();
    out.cpu_us.push_back(static_cast<double>(ThreadCpuNs() - cpu0) / 1e3);

    out.service_us[static_cast<int>(s.kind)].push_back(
        MsBetween(call, done) * 1000);
    out.latency_us.push_back(MsBetween(due, done) * 1000);
    if (st.ok()) {
      if (!s.old_row.empty()) out.applied.Add(s.old_row, -1);
      if (!s.row.empty()) out.applied.Add(s.row, +1);
    } else {
      ++out.failed;
      Log("%s failed: %s", KindName(s.kind), st.ToString().c_str());
    }
    if (handoff != nullptr) {
      {
        std::lock_guard<std::mutex> lock(handoff->mu);
        ++handoff->completed;
      }
      handoff->progressed.notify_one();
    }
  }
  if (handoff != nullptr) {
    {
      std::lock_guard<std::mutex> lock(handoff->mu);
      handoff->writer_done = true;
    }
    handoff->progressed.notify_one();
  }
  return out;
}

MoverResult RunMover(vstore::ColumnStoreTable* table,
                     vstore::DurableTable* durable, int64_t total,
                     MoverHandoff* handoff) {
  MoverResult out;
  vstore::TupleMover::Options options;
  options.include_open_stores = true;
  options.rebuild_deleted_fraction = 0;  // rebuild off
  options.checkpoint_hook = [durable] { return durable->Checkpoint(); };
  vstore::TupleMover mover(table, options);
  for (int64_t next = kMoverEvery; next < total; next += kMoverEvery) {
    {
      std::unique_lock<std::mutex> lock(handoff->mu);
      handoff->progressed.wait(lock, [&] {
        return handoff->completed >= next || handoff->writer_done;
      });
      if (handoff->completed < next) break;
    }
    const int64_t cpu0 = ThreadCpuNs();
    const auto start = Clock::now();
    auto moved = mover.RunOnce();
    out.pass_ms.push_back(MsBetween(start, Clock::now()));
    out.pass_cpu_ms.push_back(static_cast<double>(ThreadCpuNs() - cpu0) / 1e6);
    if (!moved.ok()) {
      out.error = moved.status().ToString();
      break;
    }
    const vstore::TupleMover::PassStats pass = mover.last_pass();
    out.stores_compressed += pass.stores_compressed;
    out.rows_moved += pass.rows_moved;
    out.conflicts += pass.conflicts;
  }
  return out;
}

}  // namespace perfbench
