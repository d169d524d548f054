// Parameterized consistency sweeps: the Vacation and TPC-C workloads must
// pass their audits under every engine configuration (write mode,
// inter-tree policy, futures fan-out) and concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "workloads/tpcc/tpcc.hpp"
#include "workloads/vacation/vacation.hpp"

namespace {

using txf::core::Config;
using txf::core::InterTreePolicy;
using txf::core::Runtime;
using txf::core::WriteMode;
using txf::util::Xoshiro256;
namespace vac = txf::workloads::vacation;
namespace tpcc = txf::workloads::tpcc;

struct EngineParam {
  WriteMode write_mode;
  InterTreePolicy inter_tree;
  std::size_t jobs;
};

std::string param_name(const ::testing::TestParamInfo<EngineParam>& info) {
  const EngineParam& p = info.param;
  std::string s;
  s += p.write_mode == WriteMode::kEager ? "Eager" : "Lazy";
  s += p.inter_tree == InterTreePolicy::kAbortToRoot ? "Abort" : "Private";
  s += 'J';
  s += std::to_string(p.jobs);
  return s;
}

Config make_config(const EngineParam& p) {
  Config cfg;
  cfg.pool_threads = 3;
  cfg.write_mode = p.write_mode;
  cfg.inter_tree = p.inter_tree;
  return cfg;
}

class EngineSweep : public ::testing::TestWithParam<EngineParam> {};

class VacationSweep : public EngineSweep {};

TEST_P(VacationSweep, ConcurrentMixPassesAudit) {
  Runtime rt(make_config(GetParam()));
  vac::VacationParams p;
  p.relations = 128;
  p.customers = 64;
  p.query_window = 24;
  p.jobs = GetParam().jobs;
  vac::VacationDB db(p);
  Xoshiro256 seed(1);
  db.populate(rt, seed);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(30 + t);
      for (int i = 0; i < 15; ++i) {
        const auto roll = rng.next_bounded(10);
        if (roll < 8) {
          db.make_reservation(rt, rng);
        } else if (roll < 9) {
          db.delete_customer(rt, rng);
        } else {
          db.update_tables(rt, rng);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(db.audit(rt));
}

class TpccSweep : public EngineSweep {};

TEST_P(TpccSweep, ConcurrentMixPassesAudit) {
  Runtime rt(make_config(GetParam()));
  tpcc::TpccParams p;
  p.customers_per_district = 16;
  p.items = 128;
  p.jobs = GetParam().jobs;
  p.analytics_pct = 20;
  tpcc::TpccDB db(p);
  Xoshiro256 seed(2);
  db.populate(rt, seed);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(60 + t);
      for (int i = 0; i < 15; ++i) db.run_mix(rt, rng);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(db.audit(rt));
}

const EngineParam kParams[] = {
    {WriteMode::kEager, InterTreePolicy::kAbortToRoot, 1},
    {WriteMode::kEager, InterTreePolicy::kAbortToRoot, 3},
    {WriteMode::kEager, InterTreePolicy::kSwitchToPrivate, 3},
    {WriteMode::kLazy, InterTreePolicy::kAbortToRoot, 3},
    {WriteMode::kLazy, InterTreePolicy::kSwitchToPrivate, 3},
};

INSTANTIATE_TEST_SUITE_P(Engine, VacationSweep, ::testing::ValuesIn(kParams),
                         param_name);
INSTANTIATE_TEST_SUITE_P(Engine, TpccSweep, ::testing::ValuesIn(kParams),
                         param_name);

}  // namespace
