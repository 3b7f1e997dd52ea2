// The benchmark's own transaction bodies. They issue the same engine calls,
// in the same order, as src/workload/tm1.cc and src/workload/tpcb.cc, but
// through Client::Call so each call can be timed from outside the program.
// Inputs are drawn up front, so a transaction retried after an engine
// failure runs again with the same inputs.
#pragma once

#include <cstdint>

#include "clientbench/src/client.h"
#include "src/util/rng.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"

namespace clientbench {

/// Table and index ids of the TM1 schema, resolved by name after Load.
struct Tm1Schema {
  slidb::TableId sub, ai, sf, cf;
  slidb::IndexId sub_pk, sub_nbr, ai_pk, sf_pk, cf_pk;
};

/// Table and index ids of the TPC-B schema, resolved by name after Load.
struct TpcbSchema {
  slidb::TableId branch, teller, account, history;
  slidb::IndexId b_pk, t_pk, a_pk;
};

/// Resolve schema ids by name; false if a name is missing.
bool ResolveTm1(slidb::Database& db, Tm1Schema* out);
bool ResolveTpcb(slidb::Database& db, TpcbSchema* out);

enum class Tm1Mix : uint8_t {
  kReadOnly,  ///< GetSubscriberData / GetNewDestination / GetAccessData at
              ///< the specification's 35:10:35
  kFull,      ///< all seven types at 35/10/35/2/14/2/2
};

struct Tm1Input {
  slidb::Tm1TxnType type{};
  uint64_t s_id = 0;
  uint8_t sf_type = 0;
  uint8_t ai_type = 0;
  uint8_t start_time = 0;
  uint8_t end_time = 0;
  uint8_t new_data_a = 0;
  uint16_t bit_mask = 0;
  uint32_t new_location = 0;
  uint64_t numberx = 0;  ///< subscriber number an inserted forwarding names
};

Tm1Input DrawTm1(slidb::Rng& rng, Tm1Mix mix, uint64_t subscribers);
Outcome RunTm1(Client& c, const Tm1Schema& s, const Tm1Input& in);

struct TpcbInput {
  uint32_t t_id = 0;
  uint32_t b_id = 0;
  uint64_t a_id = 0;
  int64_t delta = 0;
};

TpcbInput DrawTpcb(slidb::Rng& rng, const slidb::TpcbOptions& o);
Outcome RunTpcb(Client& c, const TpcbSchema& s, const TpcbInput& in);

}  // namespace clientbench
