// US-Flights-like workload (§IV-A, §IV-E, Fig. 15).
//
// The paper uses the US DoT on-time dataset: a 120 GB flights table and a
// 420 KB planes table, with queries Q1–Q7 (Table II):
//   Q1: join flights with planes ON tailNum           (string key)
//   Q2: SELECT * WHERE tailNum = x                    (string point query)
//   Q3: join flights with flights WHERE flightNum<200 (int key)
//   Q4: join flights with flights WHERE flightNum<400 (int key)
//   Q5–Q7: point queries with 10 / 100 / 1000 matches (int key)
//
// The generator plants three special flight numbers with exactly 10, 100 and
// 1000 occurrences so Q5–Q7 have the paper's controlled selectivities.
#pragma once

#include "common/rng.h"
#include "sql/session.h"

namespace idf {

struct FlightsConfig {
  uint64_t num_flights = 1000000;
  uint64_t num_planes = 5000;     // the real planes table is tiny (420 KB)
  int32_t num_flight_numbers = 8000;
  uint64_t seed = 99;
  uint32_t partitions = 8;

  // Planted keys for Q5/Q6/Q7 (outside the regular flight-number domain).
  static constexpr int32_t kKey10 = 900010;
  static constexpr int32_t kKey100 = 900100;
  static constexpr int32_t kKey1000 = 901000;
};

class FlightsGenerator {
 public:
  explicit FlightsGenerator(FlightsConfig config) : config_(config) {}

  const FlightsConfig& config() const { return config_; }

  /// (flight_num i32, tail_num string, origin string, dest string,
  ///  dep_delay i32, arr_delay i32, distance i32, flight_date i64)
  static SchemaPtr FlightsSchema();
  /// (tail_num string, manufacturer string, model string, year i32)
  static SchemaPtr PlanesSchema();

  RowVec FlightRow(uint64_t index) const;
  RowVec PlaneRow(uint64_t index) const;

  Result<DataFrame> Flights(Session& session) const;
  Result<DataFrame> Planes(Session& session) const;

  /// Tail number of plane `i`, e.g. "N00042" — shared by both tables.
  static std::string TailNum(uint64_t plane);

 private:
  uint64_t planted_total() const { return 10 + 100 + 1000; }

  FlightsConfig config_;
};

}  // namespace idf
