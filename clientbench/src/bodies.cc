#include "clientbench/src/bodies.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace clientbench {

namespace {

using slidb::Rid;
using slidb::Status;
using slidb::Tm1TxnType;

template <typename T>
std::span<const uint8_t> AsBytes(const T& rec) {
  return {reinterpret_cast<const uint8_t*>(&rec), sizeof(T)};
}

// Index key encodings; they must match the ones Tm1Workload::Load uses.
uint64_t AiKey(uint64_t s_id, uint8_t ai_type) {
  return s_id * 4 + (ai_type - 1);
}
uint64_t SfKey(uint64_t s_id, uint8_t sf_type) {
  return s_id * 4 + (sf_type - 1);
}
uint64_t CfKey(uint64_t s_id, uint8_t sf_type, uint8_t start_time) {
  return SfKey(s_id, sf_type) * 4 + start_time / 8;
}

void FillSubNbr(char (&out)[16], uint64_t s_id) {
  std::snprintf(out, sizeof(out), "%015llu",
                static_cast<unsigned long long>(s_id));
}

bool FindIndex(slidb::Database& db, const char* name, slidb::IndexId* out) {
  const slidb::Catalog& cat = db.catalog();
  for (size_t i = 0; i < cat.num_indexes(); ++i) {
    if (cat.index(static_cast<slidb::IndexId>(i)).name == name) {
      *out = static_cast<slidb::IndexId>(i);
      return true;
    }
  }
  return false;
}

/// Wrapped facade calls, one per engine entry point the bodies use.
class Calls {
 public:
  explicit Calls(Client& c) : c_(c), db_(c.db()), a_(&c.agent()) {}

  void Begin() {
    c_.Call(SpanName::kBegin, [&] { db_.Begin(a_); });
  }
  Status Commit() {
    return c_.Call(SpanName::kCommit, [&] { return db_.Commit(a_); });
  }
  void Abort() {
    c_.Call(SpanName::kAbort, [&] { db_.Abort(a_); });
  }
  template <typename T>
  Status Read(slidb::TableId t, uint64_t rid, T* rec) {
    return c_.Call(SpanName::kRead, [&] {
      return db_.Read(a_, t, Rid::FromU64(rid), rec, sizeof(T));
    });
  }
  template <typename T>
  Status Update(slidb::TableId t, uint64_t rid, const T& rec) {
    return c_.Call(SpanName::kUpdate, [&] {
      return db_.Update(a_, t, Rid::FromU64(rid), AsBytes(rec));
    });
  }
  template <typename T>
  Status Insert(slidb::TableId t, const T& rec, Rid* rid) {
    return c_.Call(SpanName::kInsert,
                   [&] { return db_.Insert(a_, t, AsBytes(rec), rid); });
  }
  Status Delete(slidb::TableId t, uint64_t rid) {
    return c_.Call(SpanName::kDelete,
                   [&] { return db_.Delete(a_, t, Rid::FromU64(rid)); });
  }
  Status LockX(slidb::TableId t, uint64_t rid) {
    return c_.Call(SpanName::kLockRowX, [&] {
      return db_.LockRowExclusive(a_, t, Rid::FromU64(rid));
    });
  }
  Status Lookup(slidb::IndexId i, uint64_t key, uint64_t* value) {
    return c_.Call(SpanName::kIndexLookup,
                   [&] { return db_.IndexLookup(i, key, value); });
  }
  template <typename F>
  void Scan(slidb::IndexId i, uint64_t lo, uint64_t hi, F&& fn) {
    c_.Call(SpanName::kIndexScan, [&] { db_.IndexScan(i, lo, hi, fn); });
  }
  Status IndexInsert(slidb::IndexId i, uint64_t key, uint64_t value) {
    return c_.Call(SpanName::kIndexInsert,
                   [&] { return db_.IndexInsert(a_, i, key, value); });
  }
  Status IndexRemove(slidb::IndexId i, uint64_t key, uint64_t value) {
    return c_.Call(SpanName::kIndexRemove,
                   [&] { return db_.IndexRemove(a_, i, key, value); });
  }

  /// Roll back a transaction the specification says fails.
  Outcome SpecRollback() {
    Abort();
    return Outcome::kRolledBack;
  }

  /// Roll back after an engine call failed where only engine failures may
  /// occur: retryable failures run the transaction again, anything else is
  /// an error in the program.
  Outcome Failed(const Status& st) {
    Abort();
    return st.retryable() ? Outcome::kRetry : Outcome::kError;
  }

  Outcome Finish() {
    const Status st = Commit();
    if (st.ok()) return Outcome::kCommitted;
    // Commit() has already rolled the transaction back when it refuses.
    return st.retryable() ? Outcome::kRetry : Outcome::kError;
  }

 private:
  Client& c_;
  slidb::Database& db_;
  slidb::AgentContext* a_;
};

#define CB_TRY(expr)                          \
  do {                                        \
    const ::slidb::Status _st = (expr);       \
    if (!_st.ok()) return calls.Failed(_st);  \
  } while (0)

Outcome GetSubscriberData(Calls& calls, const Tm1Schema& s,
                          const Tm1Input& in) {
  calls.Begin();
  uint64_t rid;
  CB_TRY(calls.Lookup(s.sub_pk, in.s_id, &rid));
  slidb::tm1::Subscriber sub;
  CB_TRY(calls.Read(s.sub, rid, &sub));
  return calls.Finish();
}

Outcome GetNewDestination(Calls& calls, const Tm1Schema& s,
                          const Tm1Input& in) {
  calls.Begin();
  uint64_t sf_rid;
  if (!calls.Lookup(s.sf_pk, SfKey(in.s_id, in.sf_type), &sf_rid).ok()) {
    return calls.SpecRollback();
  }
  slidb::tm1::SpecialFacility sf;
  CB_TRY(calls.Read(s.sf, sf_rid, &sf));
  if (sf.is_active == 0) return calls.SpecRollback();

  // Forwardings with start_time <= in.start_time and end_time > in.end_time.
  bool found = false;
  Status scan_status = Status::OK();
  calls.Scan(s.cf_pk, CfKey(in.s_id, in.sf_type, 0),
             CfKey(in.s_id, in.sf_type, in.start_time),
             [&](uint64_t, uint64_t cf_rid) {
               slidb::tm1::CallForwarding cf;
               const Status st = calls.Read(s.cf, cf_rid, &cf);
               if (!st.ok()) {
                 // A row deleted under the scan is skipped; lock failures
                 // end the scan.
                 if (st.ForcesAbort()) scan_status = st;
                 return !st.ForcesAbort();
               }
               if (cf.end_time > in.end_time) {
                 found = true;
                 return false;
               }
               return true;
             });
  CB_TRY(scan_status);
  if (!found) return calls.SpecRollback();
  return calls.Finish();
}

Outcome GetAccessData(Calls& calls, const Tm1Schema& s, const Tm1Input& in) {
  calls.Begin();
  uint64_t rid;
  if (!calls.Lookup(s.ai_pk, AiKey(in.s_id, in.ai_type), &rid).ok()) {
    return calls.SpecRollback();
  }
  slidb::tm1::AccessInfo ai;
  CB_TRY(calls.Read(s.ai, rid, &ai));
  return calls.Finish();
}

Outcome UpdateSubscriberData(Calls& calls, const Tm1Schema& s,
                             const Tm1Input& in) {
  calls.Begin();
  uint64_t sub_rid;
  CB_TRY(calls.Lookup(s.sub_pk, in.s_id, &sub_rid));
  slidb::tm1::Subscriber sub;
  CB_TRY(calls.LockX(s.sub, sub_rid));
  CB_TRY(calls.Read(s.sub, sub_rid, &sub));
  sub.bits ^= in.bit_mask;
  CB_TRY(calls.Update(s.sub, sub_rid, sub));

  uint64_t sf_rid;
  if (!calls.Lookup(s.sf_pk, SfKey(in.s_id, in.sf_type), &sf_rid).ok()) {
    return calls.SpecRollback();  // rolls back the subscriber update too
  }
  slidb::tm1::SpecialFacility sf;
  CB_TRY(calls.LockX(s.sf, sf_rid));
  CB_TRY(calls.Read(s.sf, sf_rid, &sf));
  sf.data_a = in.new_data_a;
  CB_TRY(calls.Update(s.sf, sf_rid, sf));
  return calls.Finish();
}

Outcome UpdateLocation(Calls& calls, const Tm1Schema& s, const Tm1Input& in) {
  calls.Begin();
  uint64_t rid;
  CB_TRY(calls.Lookup(s.sub_nbr, in.s_id, &rid));
  slidb::tm1::Subscriber sub;
  CB_TRY(calls.LockX(s.sub, rid));
  CB_TRY(calls.Read(s.sub, rid, &sub));
  sub.vlr_location = in.new_location;
  CB_TRY(calls.Update(s.sub, rid, sub));
  return calls.Finish();
}

Outcome InsertCallForwarding(Calls& calls, const Tm1Schema& s,
                             const Tm1Input& in) {
  calls.Begin();
  uint64_t sub_rid;
  CB_TRY(calls.Lookup(s.sub_nbr, in.s_id, &sub_rid));
  slidb::tm1::Subscriber sub;
  CB_TRY(calls.Read(s.sub, sub_rid, &sub));
  uint64_t sf_rid;
  if (!calls.Lookup(s.sf_pk, SfKey(in.s_id, in.sf_type), &sf_rid).ok()) {
    return calls.SpecRollback();
  }
  const uint64_t key = CfKey(in.s_id, in.sf_type, in.start_time);
  uint64_t existing;
  if (calls.Lookup(s.cf_pk, key, &existing).ok()) {
    return calls.SpecRollback();  // slot taken: the insert fails
  }
  slidb::tm1::CallForwarding cf{};
  cf.s_id = in.s_id;
  cf.sf_type = in.sf_type;
  cf.start_time = in.start_time;
  cf.end_time = in.end_time;
  FillSubNbr(cf.numberx, in.numberx);
  Rid rid;
  CB_TRY(calls.Insert(s.cf, cf, &rid));
  const Status st = calls.IndexInsert(s.cf_pk, key, rid.ToU64());
  if (st.IsKeyExists()) return calls.SpecRollback();  // concurrent duplicate
  CB_TRY(st);
  return calls.Finish();
}

Outcome DeleteCallForwarding(Calls& calls, const Tm1Schema& s,
                             const Tm1Input& in) {
  calls.Begin();
  const uint64_t key = CfKey(in.s_id, in.sf_type, in.start_time);
  uint64_t cf_rid;
  if (!calls.Lookup(s.cf_pk, key, &cf_rid).ok()) return calls.SpecRollback();
  // Row first (X lock), then the index entry: a concurrent deleter loses
  // the row race and fails with NotFound.
  const Status st = calls.Delete(s.cf, cf_rid);
  if (st.IsNotFound()) return calls.SpecRollback();
  CB_TRY(st);
  CB_TRY(calls.IndexRemove(s.cf_pk, key, cf_rid));
  return calls.Finish();
}

}  // namespace

bool ResolveTm1(slidb::Database& db, Tm1Schema* out) {
  return db.FindTable("subscriber", &out->sub) &&
         db.FindTable("access_info", &out->ai) &&
         db.FindTable("special_facility", &out->sf) &&
         db.FindTable("call_forwarding", &out->cf) &&
         FindIndex(db, "sub_pk", &out->sub_pk) &&
         FindIndex(db, "sub_nbr", &out->sub_nbr) &&
         FindIndex(db, "ai_pk", &out->ai_pk) &&
         FindIndex(db, "sf_pk", &out->sf_pk) &&
         FindIndex(db, "cf_pk", &out->cf_pk);
}

bool ResolveTpcb(slidb::Database& db, TpcbSchema* out) {
  return db.FindTable("branch", &out->branch) &&
         db.FindTable("teller", &out->teller) &&
         db.FindTable("account", &out->account) &&
         db.FindTable("history", &out->history) &&
         FindIndex(db, "b_pk", &out->b_pk) &&
         FindIndex(db, "t_pk", &out->t_pk) &&
         FindIndex(db, "a_pk", &out->a_pk);
}

Tm1Input DrawTm1(slidb::Rng& rng, Tm1Mix mix, uint64_t subscribers) {
  Tm1Input in;
  if (mix == Tm1Mix::kReadOnly) {
    const uint64_t r = rng.Uniform(0, 79);
    in.type = r < 35   ? Tm1TxnType::kGetSubscriberData
              : r < 45 ? Tm1TxnType::kGetNewDestination
                       : Tm1TxnType::kGetAccessData;
  } else {
    const uint64_t r = rng.Uniform(0, 999);
    in.type = r < 350   ? Tm1TxnType::kGetSubscriberData
              : r < 450 ? Tm1TxnType::kGetNewDestination
              : r < 800 ? Tm1TxnType::kGetAccessData
              : r < 820 ? Tm1TxnType::kUpdateSubscriberData
              : r < 960 ? Tm1TxnType::kUpdateLocation
              : r < 980 ? Tm1TxnType::kInsertCallForwarding
                        : Tm1TxnType::kDeleteCallForwarding;
  }
  in.s_id = rng.Uniform(1, subscribers);
  switch (in.type) {
    case Tm1TxnType::kGetSubscriberData:
      break;
    case Tm1TxnType::kGetNewDestination:
      in.sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      in.start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
      in.end_time = static_cast<uint8_t>(rng.Uniform(1, 24));
      break;
    case Tm1TxnType::kGetAccessData:
      in.ai_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      break;
    case Tm1TxnType::kUpdateSubscriberData:
      in.sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      in.new_data_a = static_cast<uint8_t>(rng.Uniform(0, 255));
      in.bit_mask = static_cast<uint16_t>(1u << rng.Uniform(0, 9));
      break;
    case Tm1TxnType::kUpdateLocation:
      in.new_location = static_cast<uint32_t>(rng.Next());
      break;
    case Tm1TxnType::kInsertCallForwarding:
      in.sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      in.start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
      in.end_time = static_cast<uint8_t>(in.start_time + rng.Uniform(1, 8));
      in.numberx = rng.Uniform(1, subscribers);
      break;
    case Tm1TxnType::kDeleteCallForwarding:
      in.sf_type = static_cast<uint8_t>(rng.Uniform(1, 4));
      in.start_time = static_cast<uint8_t>(rng.Uniform(0, 2) * 8);
      break;
  }
  return in;
}

Outcome RunTm1(Client& c, const Tm1Schema& s, const Tm1Input& in) {
  Calls calls(c);
  switch (in.type) {
    case Tm1TxnType::kGetSubscriberData:
      return GetSubscriberData(calls, s, in);
    case Tm1TxnType::kGetNewDestination:
      return GetNewDestination(calls, s, in);
    case Tm1TxnType::kGetAccessData:
      return GetAccessData(calls, s, in);
    case Tm1TxnType::kUpdateSubscriberData:
      return UpdateSubscriberData(calls, s, in);
    case Tm1TxnType::kUpdateLocation:
      return UpdateLocation(calls, s, in);
    case Tm1TxnType::kInsertCallForwarding:
      return InsertCallForwarding(calls, s, in);
    case Tm1TxnType::kDeleteCallForwarding:
      return DeleteCallForwarding(calls, s, in);
  }
  return Outcome::kError;
}

TpcbInput DrawTpcb(slidb::Rng& rng, const slidb::TpcbOptions& o) {
  // Random teller; the account is in the teller's branch 85% of the time.
  TpcbInput in;
  in.t_id = static_cast<uint32_t>(
      rng.Uniform(0, o.branches * o.tellers_per_branch - 1));
  in.b_id = in.t_id / o.tellers_per_branch;
  if (rng.Bernoulli(0.85) || o.branches == 1) {
    in.a_id = static_cast<uint64_t>(in.b_id) * o.accounts_per_branch +
              rng.Uniform(0, o.accounts_per_branch - 1);
  } else {
    in.a_id = rng.Uniform(
        0, static_cast<uint64_t>(o.branches) * o.accounts_per_branch - 1);
  }
  in.delta = rng.UniformInt(-99999, 99999);
  return in;
}

Outcome RunTpcb(Client& c, const TpcbSchema& s, const TpcbInput& in) {
  Calls calls(c);
  calls.Begin();

  uint64_t a_rid;
  CB_TRY(calls.Lookup(s.a_pk, in.a_id, &a_rid));
  slidb::tpcb::Account acct;
  CB_TRY(calls.LockX(s.account, a_rid));
  CB_TRY(calls.Read(s.account, a_rid, &acct));
  acct.balance += in.delta;
  CB_TRY(calls.Update(s.account, a_rid, acct));

  uint64_t t_rid;
  CB_TRY(calls.Lookup(s.t_pk, in.t_id, &t_rid));
  slidb::tpcb::Teller teller;
  CB_TRY(calls.LockX(s.teller, t_rid));
  CB_TRY(calls.Read(s.teller, t_rid, &teller));
  teller.balance += in.delta;
  CB_TRY(calls.Update(s.teller, t_rid, teller));

  uint64_t b_rid;
  CB_TRY(calls.Lookup(s.b_pk, in.b_id, &b_rid));
  slidb::tpcb::Branch branch;
  CB_TRY(calls.LockX(s.branch, b_rid));
  CB_TRY(calls.Read(s.branch, b_rid, &branch));
  branch.balance += in.delta;
  CB_TRY(calls.Update(s.branch, b_rid, branch));

  slidb::tpcb::History h{};
  h.t_id = in.t_id;
  h.b_id = in.b_id;
  h.a_id = in.a_id;
  h.delta = in.delta;
  h.timestamp = slidb::NowMicros();
  Rid h_rid;
  CB_TRY(calls.Insert(s.history, h, &h_rid));
  return calls.Finish();
}

}  // namespace clientbench
