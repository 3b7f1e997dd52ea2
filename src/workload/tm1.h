// TM1 / Nokia Network Database Benchmark (NDBB): the telecom Home Location
// Register workload the paper leans on hardest — seven very short
// transactions over four tables, with spec-mandated failure rates caused by
// probing random (often absent) keys (paper §5.1).
#pragma once

#include <cstdint>

#include "src/workload/workload.h"

namespace slidb {

/// TM1 transaction types (paper order).
enum class Tm1TxnType : uint8_t {
  kGetSubscriberData = 0,  // read-only, 35% of mix, 0% fail
  kGetNewDestination,      // read-only, 10% of mix, ~84% fail (loader
                           // fills forwarding slots with p = 1/2)
  kGetAccessData,          // read-only, 35% of mix, ~37.5% fail
  kUpdateSubscriberData,   // update,     2% of mix, ~37.5% fail
  kUpdateLocation,         // update,    14% of mix, 0% fail
  kInsertCallForwarding,   // update,     2% of mix, ~69% fail
  kDeleteCallForwarding,   // update,     2% of mix, ~69% fail
};

struct Tm1Options {
  uint64_t subscribers = 50'000;
};

/// Packed TM1 records (scaled field widths documented in DESIGN.md).
namespace tm1 {

struct Subscriber {
  uint64_t s_id;
  char sub_nbr[16];      // 15-digit string + NUL
  uint16_t bits;         // bit_1..bit_10
  uint8_t hex[10];
  uint8_t byte2[10];
  uint32_t msc_location;
  uint32_t vlr_location;
};

struct AccessInfo {
  uint64_t s_id;
  uint8_t ai_type;  // 1..4
  uint8_t data1;
  uint8_t data2;
  char data3[4];
  char data4[6];
};

struct SpecialFacility {
  uint64_t s_id;
  uint8_t sf_type;    // 1..4
  uint8_t is_active;  // 85% true
  uint8_t error_cntrl;
  uint8_t data_a;
  char data_b[6];
};

struct CallForwarding {
  uint64_t s_id;
  uint8_t sf_type;
  uint8_t start_time;  // 0, 8 or 16
  uint8_t end_time;    // start_time + 1..8
  char numberx[16];
};

}  // namespace tm1

/// The full TM1 workload. `fixed_type` (when >= 0) pins the mix to a single
/// transaction type — the paper evaluates individual transactions as well
/// as the specified mix and the "Forward mix".
class Tm1Workload : public Workload {
 public:
  enum class Mix : uint8_t {
    kFull,     ///< spec frequencies (35/10/35/2/14/2/2)
    kForward,  ///< getDest / insertCF / deleteCF at 71.4/14.3/14.3
    kSingle,   ///< only `single_type`
  };

  explicit Tm1Workload(Tm1Options options = {}, Mix mix = Mix::kFull,
                       Tm1TxnType single_type = Tm1TxnType::kGetSubscriberData)
      : options_(options), mix_(mix), single_type_(single_type) {}

  const char* name() const override;
  void Load(Database& db) override;
  Status RunOne(Database& db, AgentContext& agent) override;

  /// Expose per-type entry points for tests.
  Status GetSubscriberData(Database& db, AgentContext& agent);
  Status GetNewDestination(Database& db, AgentContext& agent);
  Status GetAccessData(Database& db, AgentContext& agent);
  Status UpdateSubscriberData(Database& db, AgentContext& agent);
  Status UpdateLocation(Database& db, AgentContext& agent);
  Status InsertCallForwarding(Database& db, AgentContext& agent);
  Status DeleteCallForwarding(Database& db, AgentContext& agent);

  const Tm1Options& options() const { return options_; }

 private:
  Tm1TxnType PickType(Rng& rng) const;

  Tm1Options options_;
  Mix mix_;
  Tm1TxnType single_type_;

  TableId sub_table_{}, ai_table_{}, sf_table_{}, cf_table_{};
  IndexId sub_pk_{}, sub_nbr_idx_{}, ai_pk_{}, sf_pk_{}, cf_pk_{};
};

}  // namespace slidb
