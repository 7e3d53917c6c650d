#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "workload/linear_road.h"

namespace e2e {

using tpstream::Field;
using tpstream::LinearRoadGenerator;
using tpstream::ValueType;

void Input::Materialize(size_t i, Event* out) const {
  out->t = t[i];
  if (out->payload.size() != static_cast<size_t>(num_fields)) {
    out->payload.assign(num_fields, Value());
  }
  const float* row = &cols[i * num_fields];
  for (int f = 0; f < num_fields; ++f) {
    Value& v = out->payload[f];
    if (f == key_field) {
      if (string_keys) {
        char buf[16];
        const int n = std::snprintf(buf, sizeof(buf), "h%07u", key[i]);
        v = Value(std::string(buf, n));
      } else {
        v = Value(static_cast<int64_t>(key[i]));
      }
      continue;
    }
    switch (schema.field(f).type) {
      case ValueType::kInt:
        v = Value(static_cast<int64_t>(row[f]));
        break;
      case ValueType::kBool:
        v = Value(row[f] != 0.0f);
        break;
      default:
        v = Value(static_cast<double>(row[f]));
        break;
    }
  }
}

uint32_t Input::KeyOf(const Value& v) const {
  if (v.type() == ValueType::kInt) return static_cast<uint32_t>(v.AsInt());
  if (v.type() != ValueType::kString) return UINT32_MAX;
  const std::string& s = v.AsString();
  uint32_t id = 0;
  for (size_t i = 1; i < s.size(); ++i) id = id * 10 + (s[i] - '0');
  return id;
}

int64_t Input::Find(uint32_t k, TimePoint time) const {
  if (t.empty() || time < t.front() || time > t.back()) return -1;
  const size_t tick = static_cast<size_t>(time - t.front());
  const auto begin = key.begin() + tick_first[tick];
  const auto end = key.begin() + tick_first[tick + 1];
  const auto it = std::lower_bound(begin, end, k);
  if (it == end || *it != k) return -1;
  return it - key.begin();
}

void Input::Add(TimePoint time, uint32_t key_id, const float* row) {
  t.push_back(time);
  key.push_back(key_id);
  cols.insert(cols.end(), row, row + num_fields);
  num_keys = std::max(num_keys, key_id + 1);
}

void Input::Seal() {
  tick_first.clear();
  if (t.empty()) return;
  const TimePoint t0 = t.front();
  tick_first.assign(static_cast<size_t>(t.back() - t0) + 2, 0);
  size_t i = 0;
  for (size_t tick = 0; tick + 1 < tick_first.size(); ++tick) {
    tick_first[tick] = static_cast<uint32_t>(i);
    while (i < t.size() && t[i] == t0 + static_cast<TimePoint>(tick)) ++i;
  }
  tick_first.back() = static_cast<uint32_t>(t.size());
}

namespace {

// --- drivers_durable: Linear-Road-style car reports, Listing-1 query ------

float Quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const size_t k = static_cast<size_t>(q * (v.size() - 1));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

void MakeDrivers(uint64_t seed, size_t events, Workload* w) {
  LinearRoadGenerator::Options lr;
  lr.num_cars = 1000;
  lr.aggressive_fraction = 0.08;
  lr.seed = seed;
  LinearRoadGenerator gen(lr);
  Input& in = w->input;
  in.schema = gen.schema();
  in.key_field = LinearRoadGenerator::kCarId;
  in.num_fields = in.schema.num_fields();
  in.t.reserve(events);
  in.key.reserve(events);
  in.cols.reserve(events * in.num_fields);
  Event e;
  std::vector<float> row(in.num_fields);
  for (size_t i = 0; i < events; ++i) {
    gen.Next(&e);
    for (int f = 0; f < in.num_fields; ++f) {
      row[f] = static_cast<float>(e.payload[f].ToDouble());
    }
    in.Add(e.t, static_cast<uint32_t>(e.payload[in.key_field].AsInt()),
           row.data());
  }
  in.Seal();

  // Thresholds calibrated like Section 6.2.1 of the paper (p99 speed,
  // p90 of positive and of negative acceleration), over the run's own
  // first 50k reports.
  std::vector<float> speed, up, down;
  for (size_t i = 0; i < std::min<size_t>(events, 50000); ++i) {
    const float* r = &in.cols[i * in.num_fields];
    speed.push_back(r[LinearRoadGenerator::kSpeed]);
    const float a = r[LinearRoadGenerator::kAccel];
    if (a > 0) up.push_back(a);
    if (a < 0) down.push_back(-a);
  }
  char query[1024];
  std::snprintf(
      query, sizeof(query),
      "FROM CarSensors CS PARTITION BY CS.car_id "
      "DEFINE A AS CS.accel > %.9g, B AS CS.speed > %.9g, "
      "C AS CS.accel < %.9g "
      "PATTERN A meets B; A overlaps B; A starts B; A during B "
      "AND C during B; B finishes C; B overlaps C; B meets C "
      "AND A before C "
      "WITHIN 5 MINUTES "
      "RETURN first(B.car_id) AS car, avg(B.speed) AS avg_speed, "
      "max(A.accel) AS peak_accel, min(C.accel) AS hard_brake",
      Quantile(up, 0.90), Quantile(speed, 0.99), -Quantile(down, 0.90));
  w->query = query;
  w->durable = true;
  w->checkpoint_every = 256 * 256;  // a whole number of batches
  w->lo_eps = 300000;
  w->hi_eps = 600000;
}

// --- flip_storm: 64 boolean keys flipping often, match-heavy -------------

void MakeFlipStorm(uint64_t seed, size_t events, Workload* w) {
  constexpr int kKeys = 64;
  Input& in = w->input;
  in.schema = Schema({Field{"key", ValueType::kInt},
                      Field{"flag", ValueType::kBool}});
  in.key_field = 0;
  in.num_fields = 2;
  in.t.reserve(events);
  in.key.reserve(events);
  in.cols.reserve(events * 2);
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution flip(0.35);
  std::vector<bool> flag(kKeys);
  for (int k = 0; k < kKeys; ++k) flag[k] = flip(rng);
  for (TimePoint t = 1; in.size() < events; ++t) {
    for (int k = 0; k < kKeys && in.size() < events; ++k) {
      if (flip(rng)) flag[k] = !flag[k];
      const float row[2] = {0.0f, flag[k] ? 1.0f : 0.0f};
      in.Add(t, static_cast<uint32_t>(k), row);
    }
  }
  in.Seal();
  w->query =
      "FROM Flags F PARTITION BY F.key "
      "DEFINE A AS F.flag, B AS NOT F.flag "
      "PATTERN A meets B; A before B "
      "WITHIN 200 "
      "RETURN first(A.key) AS key, count(A) AS n";
  w->lo_eps = 250000;
  w->hi_eps = 500000;
}

// --- host_rules: wide telemetry, string host ids with churn --------------

enum HostField {
  kHost, kCpu, kMem, kIoWait, kDiskLat, kNetIn, kNetOut, kNetErr, kTemp,
  kInlet, kFan, kHostFields
};

struct Host {
  uint32_t id = 0;
  int age = 0;
  int life = 0;
  // Incidents may start every `period` ticks (shifted by `phase`); bit c
  // of `faulty` says whether the c-th one happens.
  int period = 0;
  int phase = 0;
  uint32_t faulty = 0;
  float cpu = 0, mem = 0, inlet = 0;
};

void MakeHostRules(uint64_t seed, size_t events, Workload* w) {
  constexpr int kLiveHosts = 4096;
  constexpr int kIncidentLen = 12;
  Input& in = w->input;
  in.schema = Schema({
      Field{"host", ValueType::kString}, Field{"cpu", ValueType::kDouble},
      Field{"mem", ValueType::kDouble}, Field{"iowait", ValueType::kDouble},
      Field{"disk_lat", ValueType::kDouble},
      Field{"net_in", ValueType::kDouble},
      Field{"net_out", ValueType::kDouble},
      Field{"net_err", ValueType::kInt}, Field{"temp", ValueType::kDouble},
      Field{"inlet", ValueType::kDouble}, Field{"fan", ValueType::kDouble}});
  in.key_field = kHost;
  in.string_keys = true;
  in.num_fields = kHostFields;
  in.t.reserve(events);
  in.key.reserve(events);
  in.cols.reserve(events * kHostFields);

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> uni(0.0f, 1.0f);
  std::uniform_int_distribution<int> life(60, 180);
  uint32_t next_id = 0;
  auto spawn = [&](int age) {
    Host h;
    h.id = next_id++;
    h.life = life(rng);
    h.age = std::min(age, h.life - 1);
    h.cpu = 10 + 40 * uni(rng);
    h.mem = 30 + 40 * uni(rng);
    h.inlet = 18 + 8 * uni(rng);
    h.period = 20 + static_cast<int>(20 * uni(rng));
    h.phase = static_cast<int>(h.period * uni(rng));
    for (int c = 0; c < 12; ++c) h.faulty |= (uni(rng) < 0.8f ? 1u : 0u) << c;
    return h;
  };
  std::vector<Host> live;
  for (int i = 0; i < kLiveHosts; ++i) live.push_back(spawn(life(rng)));

  float row[kHostFields];
  for (TimePoint t = 1; in.size() < events; ++t) {
    for (Host& h : live) {
      if (in.size() >= events) break;
      const int cycle = (h.age + h.phase) / h.period;
      const int start = cycle * h.period - h.phase;
      const bool incident = cycle < 12 && (h.faulty >> cycle & 1) &&
                            start >= 0 && start + kIncidentLen <= h.life;
      const int d = incident ? h.age - start : -1;
      auto in_phase = [d](int from, int to) { return d >= from && d < to; };
      row[kCpu] = std::clamp(h.cpu + 16 * (uni(rng) - 0.5f), 0.0f, 100.0f);
      row[kMem] = h.mem + 6 * uni(rng);
      row[kIoWait] = 10 * uni(rng);
      row[kDiskLat] = 1 + 7 * uni(rng);
      row[kNetIn] = 5 + 35 * uni(rng);
      row[kNetOut] = 5 + 35 * uni(rng);
      row[kNetErr] = static_cast<float>(static_cast<int>(4 * uni(rng)));
      row[kInlet] = h.inlet;
      row[kTemp] = h.inlet + 8 + 7 * uni(rng);
      row[kFan] = 2000 + 1500 * uni(rng);
      // Background noise: each rule's predicate also holds now and then
      // outside incidents, so derive opens situations the matcher must
      // buffer without completing the pattern.
      if (uni(rng) < 0.02f) row[kCpu] = 92, row[kMem] = 55 + 10 * uni(rng);
      if (uni(rng) < 0.01f) row[kFan] = 5200;
      if (uni(rng) < 0.01f) row[kDiskLat] = 80, row[kIoWait] = 9;
      if (uni(rng) < 0.01f) row[kNetErr] = 120;
      // The scripted incident: BUSY, then HOT overlapping it, then SLOW,
      // then LOSSY, with memory PRESSURE overlapping BUSY.
      if (in_phase(0, 4)) {
        row[kCpu] = 85 + 14 * uni(rng);
        row[kMem] = 60 + 20 * uni(rng);
        row[kIoWait] = 10 + 10 * uni(rng);
      }
      if (in_phase(1, 6)) {
        row[kMem] = 89 + 8 * uni(rng);
        row[kIoWait] = 16 + 10 * uni(rng);
      }
      if (in_phase(2, 7)) row[kTemp] = h.inlet + 26 + 6 * uni(rng);
      if (in_phase(5, 9)) {
        row[kDiskLat] = 30 + 30 * uni(rng);
        row[kIoWait] = 20 + 20 * uni(rng);
      }
      if (in_phase(8, 11)) {
        row[kNetErr] = static_cast<float>(40 + static_cast<int>(40 * uni(rng)));
      }
      in.Add(t, h.id, row);
      ++h.age;
    }
    // Retire hosts at the end of their life; replacements get fresh,
    // larger ids, so `live` stays sorted by id.
    std::erase_if(live, [](const Host& h) { return h.age >= h.life; });
    while (live.size() < kLiveHosts) live.push_back(spawn(0));
  }
  in.Seal();
  w->query =
      "FROM Telemetry H PARTITION BY H.host "
      "DEFINE BUSY AS H.cpu * 0.7 + H.iowait * 0.3 > 60 AND H.mem > 50, "
      "HOT AS H.temp - H.inlet > 22 OR H.fan > 5000, "
      "SLOW AS H.disk_lat * H.iowait > 500 AND (H.net_in + H.net_out) > 30, "
      "LOSSY AS H.net_err / (H.net_in + H.net_out + 1) > 0.5 OR "
      "H.net_err > 100, "
      "PRESSURE AS H.mem > 88 AND H.iowait > 15 "
      "PATTERN BUSY overlaps HOT; BUSY meets HOT; BUSY starts HOT "
      "AND HOT overlaps SLOW; HOT meets SLOW; HOT before SLOW "
      "AND SLOW overlaps LOSSY; SLOW meets LOSSY; SLOW before LOSSY "
      "AND BUSY overlaps PRESSURE; BUSY starts PRESSURE; "
      "BUSY during PRESSURE "
      "WITHIN 30 "
      "RETURN first(BUSY.host) AS host, max(HOT.temp) AS peak_temp, "
      "avg(SLOW.disk_lat) AS disk_lat, count(LOSSY) AS lossy";
  w->lo_eps = 250000;
  w->hi_eps = 500000;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, size_t events,
                  Workload* out) {
  out->name = name;
  if (name == "drivers_durable") {
    MakeDrivers(seed, events, out);
  } else if (name == "flip_storm") {
    MakeFlipStorm(seed, events, out);
  } else if (name == "host_rules") {
    MakeHostRules(seed, events, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace e2e
