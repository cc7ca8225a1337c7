// Unit tests for the (Pi, phi) preference registry.
#include <gtest/gtest.h>

#include "flow/preferences.hpp"
#include "util/assert.hpp"

namespace midrr {
namespace {

TEST(Preferences, DenseIdsInOrder) {
  Preferences p;
  EXPECT_EQ(p.add_interface("wifi"), 0u);
  EXPECT_EQ(p.add_interface("lte"), 1u);
  EXPECT_EQ(p.add_flow(1.0, {0}, "netflix"), 0u);
  EXPECT_EQ(p.add_flow(1.0, {0, 1}, "dropbox"), 1u);
  EXPECT_EQ(p.flow_count(), 2u);
  EXPECT_EQ(p.iface_count(), 2u);
}

TEST(Preferences, WillingnessMatrix) {
  Preferences p;
  const auto wifi = p.add_interface("wifi");
  const auto lte = p.add_interface("lte");
  const auto f = p.add_flow(2.0, {lte}, "voip");
  EXPECT_FALSE(p.willing(f, wifi));
  EXPECT_TRUE(p.willing(f, lte));
  p.set_willing(f, wifi, true);
  EXPECT_TRUE(p.willing(f, wifi));
  EXPECT_EQ(p.ifaces_of(f), (std::vector<IfaceId>{wifi, lte}));
  EXPECT_EQ(p.flows_willing(wifi), (std::vector<FlowId>{f}));
  const auto row = p.willing_row(f);
  EXPECT_EQ(std::vector<std::uint8_t>(row.begin(), row.end()),
            (std::vector<std::uint8_t>{1, 1}));
}

TEST(Preferences, IdsNeverReused) {
  Preferences p;
  p.add_interface();
  const auto f0 = p.add_flow(1.0, {0});
  p.remove_flow(f0);
  const auto f1 = p.add_flow(1.0, {0});
  EXPECT_NE(f0, f1);
  EXPECT_FALSE(p.flow_exists(f0));
  EXPECT_TRUE(p.flow_exists(f1));
  EXPECT_EQ(p.flow_slots(), 2u);
  EXPECT_EQ(p.flow_count(), 1u);
}

TEST(Preferences, InterfaceAddedAfterFlows) {
  Preferences p;
  const auto j0 = p.add_interface();
  const auto f = p.add_flow(1.0, {j0});
  const auto j1 = p.add_interface();
  EXPECT_FALSE(p.willing(f, j1));  // willingness defaults to false
  p.set_willing(f, j1, true);
  EXPECT_TRUE(p.willing(f, j1));
}

TEST(Preferences, RemovedInterfaceIsInvisible) {
  Preferences p;
  const auto j0 = p.add_interface("a");
  const auto j1 = p.add_interface("b");
  const auto f = p.add_flow(1.0, {j0, j1});
  p.remove_interface(j0);
  EXPECT_FALSE(p.iface_exists(j0));
  EXPECT_FALSE(p.willing(f, j0));
  EXPECT_EQ(p.ifaces_of(f), (std::vector<IfaceId>{j1}));
  EXPECT_EQ(p.ifaces(), (std::vector<IfaceId>{j1}));
  const auto row = p.willing_row(f);
  EXPECT_EQ(std::vector<std::uint8_t>(row.begin(), row.end()),
            (std::vector<std::uint8_t>{0, 1}))
      << "a removed interface's column of Pi reads unwilling";
}

TEST(Preferences, WeightsValidated) {
  Preferences p;
  p.add_interface();
  const auto f = p.add_flow(1.5, {0});
  EXPECT_DOUBLE_EQ(p.weight(f), 1.5);
  p.set_weight(f, 3.0);
  EXPECT_DOUBLE_EQ(p.weight(f), 3.0);
  EXPECT_THROW(p.set_weight(f, 0.0), PreconditionError);
  EXPECT_THROW(p.add_flow(-2.0, {0}), PreconditionError);
}

TEST(Preferences, UnknownIdsThrow) {
  Preferences p;
  EXPECT_THROW(p.weight(3), PreconditionError);
  EXPECT_THROW(p.remove_flow(0), PreconditionError);
  EXPECT_THROW(p.remove_interface(0), PreconditionError);
  EXPECT_THROW(p.iface_name(9), PreconditionError);
  p.add_interface();
  EXPECT_THROW(p.add_flow(1.0, {5}), PreconditionError);
}

TEST(Preferences, DefaultNamesGenerated) {
  Preferences p;
  p.add_interface();
  p.add_flow(1.0, {0});
  p.add_flow(1.0, {0}, "video");
  p.add_flow(1.0, {0});
  EXPECT_EQ(p.iface_name(0), "iface0");
  EXPECT_EQ(p.flow_name(0), "flow0");
  EXPECT_EQ(p.flow_name(1), "video") << "a given name is stored as given";
  EXPECT_EQ(p.flow_name(2), "flow2") << "unnamed flows are named by id";
}

TEST(Preferences, EmptyWillingRowAllowed) {
  // A flow unwilling to use any interface is legal; it just never gets
  // scheduled (the paper's model does not forbid it).
  Preferences p;
  p.add_interface();
  const auto f = p.add_flow(1.0, {});
  EXPECT_TRUE(p.ifaces_of(f).empty());
  EXPECT_EQ(p.willing_row(f).size(), 1u);
  EXPECT_EQ(p.willing_row(f)[0], 0);
}

}  // namespace
}  // namespace midrr
