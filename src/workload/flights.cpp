#include "workload/flights.h"

#include <cstdio>

namespace idf {
namespace {

const char* kAirports[] = {"ATL", "ORD", "DFW", "LAX", "JFK", "DEN",
                           "SFO", "SEA", "MIA", "BOS", "PHX", "IAH"};
constexpr size_t kNumAirports = sizeof(kAirports) / sizeof(kAirports[0]);

const char* kManufacturers[] = {"BOEING", "AIRBUS", "EMBRAER", "BOMBARDIER"};

}  // namespace

SchemaPtr FlightsGenerator::FlightsSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(Schema({
      {"flight_num", TypeId::kInt32, false},
      {"tail_num", TypeId::kString, false},
      {"origin", TypeId::kString, false},
      {"dest", TypeId::kString, false},
      {"dep_delay", TypeId::kInt32, true},
      {"arr_delay", TypeId::kInt32, true},
      {"distance", TypeId::kInt32, false},
      {"flight_date", TypeId::kInt64, false},
  }));
  return kSchema;
}

SchemaPtr FlightsGenerator::PlanesSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(Schema({
      {"tail_num", TypeId::kString, false},
      {"manufacturer", TypeId::kString, false},
      {"model", TypeId::kString, false},
      {"year", TypeId::kInt32, false},
  }));
  return kSchema;
}

std::string FlightsGenerator::TailNum(uint64_t plane) {
  char buf[22];  // 'N', up to 20 digits, NUL
  std::snprintf(buf, sizeof(buf), "N%05llu",
                static_cast<unsigned long long>(plane));
  return buf;
}

RowVec FlightsGenerator::FlightRow(uint64_t index) const {
  Rng rng(HashCombine(config_.seed, index));
  // The first 1110 rows carry the planted Q5/Q6/Q7 keys; the rest draw from
  // the regular flight-number domain.
  int32_t flight_num;
  if (index < 10) {
    flight_num = FlightsConfig::kKey10;
  } else if (index < 110) {
    flight_num = FlightsConfig::kKey100;
  } else if (index < 1110) {
    flight_num = FlightsConfig::kKey1000;
  } else {
    flight_num = static_cast<int32_t>(
        rng.Below(static_cast<uint64_t>(config_.num_flight_numbers)));
  }
  const uint64_t plane = rng.Below(config_.num_planes);
  const size_t origin = rng.Below(kNumAirports);
  size_t dest = rng.Below(kNumAirports - 1);
  if (dest >= origin) ++dest;
  const bool delayed = rng.Chance(0.25);
  return {Value::Int32(flight_num),
          Value::String(TailNum(plane)),
          Value::String(kAirports[origin]),
          Value::String(kAirports[dest]),
          delayed ? Value::Int32(static_cast<int32_t>(rng.Below(180)))
                  : Value::Int32(0),
          delayed ? Value::Int32(static_cast<int32_t>(rng.Below(240)))
                  : Value::Int32(0),
          Value::Int32(static_cast<int32_t>(100 + rng.Below(2900))),
          Value::Int64(1199145600 +
                       static_cast<int64_t>(rng.Below(86400ull * 365)))};
}

RowVec FlightsGenerator::PlaneRow(uint64_t index) const {
  Rng rng(HashCombine(config_.seed ^ 0x9a9a9a9aULL, index));
  const size_t manufacturer = rng.Below(4);
  return {Value::String(TailNum(index)),
          Value::String(kManufacturers[manufacturer]),
          Value::String("M" + std::to_string(rng.Below(20))),
          Value::Int32(static_cast<int32_t>(1985 + rng.Below(25)))};
}

Result<DataFrame> FlightsGenerator::Flights(Session& session) const {
  const FlightsConfig config = config_;
  FlightsGenerator generator(config);
  return session.CreateTableFromGenerator(
      "flights", FlightsSchema(), config.partitions,
      [generator, config](uint32_t partition) {
        std::vector<RowVec> out;
        for (uint64_t i = partition; i < config.num_flights;
             i += config.partitions) {
          out.push_back(generator.FlightRow(i));
        }
        return out;
      });
}

Result<DataFrame> FlightsGenerator::Planes(Session& session) const {
  const FlightsConfig config = config_;
  FlightsGenerator generator(config);
  const uint32_t partitions = std::min<uint32_t>(config.partitions, 2);
  return session.CreateTableFromGenerator(
      "planes", PlanesSchema(), partitions,
      [generator, config, partitions](uint32_t partition) {
        std::vector<RowVec> out;
        for (uint64_t i = partition; i < config.num_planes; i += partitions) {
          out.push_back(generator.PlaneRow(i));
        }
        return out;
      });
}

}  // namespace idf
