// User preferences: the interface-preference matrix Pi and the
// rate-preference weights phi of the paper's Section 2 model (Fig 2).
//
// Preferences is the registry of flows and interfaces: it mints dense ids,
// stores the bipartite willingness graph, and validates inputs (weights must
// be positive; a flow may have an empty preference row -- it then simply
// never gets scheduled, which tests cover).  Schedulers observe it through
// the read-only API and are notified of changes by their owner.
//
// Per-flow state is columnar and allocation-free: one flat array per
// attribute indexed by FlowId, and Pi as one byte per (flow, interface
// slot) in a FlowIfaceMatrix, so registering an unnamed flow only appends
// to amortized columns.  The minimum live weight phi_min (the DRR family's
// quantum normalizer) is maintained as a count of live flows per distinct
// weight, so reading it is O(1) and no preference change costs O(flows).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "flow/ids.hpp"
#include "util/flat_matrix.hpp"

namespace midrr {

/// The (Pi, phi) preference state for a set of flows and interfaces.
class Preferences {
 public:
  /// Registers a new interface; returns its dense id.
  IfaceId add_interface(std::string name = {});

  /// Registers a new flow with rate-preference weight `weight` (> 0) and
  /// the given willingness row; returns its dense id.
  FlowId add_flow(double weight, const std::vector<IfaceId>& willing,
                  std::string name = {});

  /// Removes a flow; its id is never reused.
  void remove_flow(FlowId flow);

  /// Removes an interface (e.g. WiFi went away); its id is never reused
  /// and its column of Pi reads unwilling from then on.
  void remove_interface(IfaceId iface);

  bool flow_exists(FlowId flow) const;
  bool iface_exists(IfaceId iface) const;

  /// pi_{flow,iface}: is the flow willing to use the interface?
  bool willing(FlowId flow, IfaceId iface) const;

  /// Updates one entry of Pi.
  void set_willing(FlowId flow, IfaceId iface, bool value);

  /// Row `flow` of Pi, one byte per interface slot (non-zero = willing;
  /// removed interfaces read zero).  A view into the matrix: valid until
  /// the next add_flow / add_interface.
  std::span<const std::uint8_t> willing_row(FlowId flow) const;

  /// phi_flow.
  double weight(FlowId flow) const;
  void set_weight(FlowId flow, double weight);

  /// phi_min: the smallest weight of any live flow (1.0 when none is
  /// live).  O(1).
  double min_weight() const;

  /// The name the flow was registered with, or "flow<id>" if none.
  std::string flow_name(FlowId flow) const;
  const std::string& iface_name(IfaceId iface) const;

  /// Flows willing to use `iface` (the paper's F_j), in id order.
  std::vector<FlowId> flows_willing(IfaceId iface) const;

  /// Interfaces flow `flow` is willing to use, in id order.
  std::vector<IfaceId> ifaces_of(FlowId flow) const;

  /// All live flow / interface ids in id order.
  std::vector<FlowId> flows() const;
  std::vector<IfaceId> ifaces() const;

  std::size_t flow_count() const;
  std::size_t iface_count() const;

  /// One past the largest id ever handed out (ids are never reused, so
  /// dense per-flow / per-interface arrays must be sized by slots, not by
  /// the live count).
  std::size_t flow_slots() const { return live_.size(); }
  std::size_t iface_slots() const { return ifaces_.size(); }

 private:
  struct IfaceEntry {
    bool live = false;
    std::string name;
  };

  void require_flow(FlowId flow) const;

  /// Uncounts one live flow of weight `weight` (the inverse of
  /// ++live_weights_[weight]).
  void uncount_weight(double weight);

  // Per-flow columns, indexed by FlowId.
  std::vector<std::uint8_t> live_;
  std::vector<double> weight_;
  std::vector<std::string> name_;    // as given; empty = unnamed
  FlowIfaceMatrix<std::uint8_t> pi_; // [flow][iface]; 1 = willing

  /// Live flows per distinct weight, ascending; begin() is phi_min.
  std::map<double, std::size_t> live_weights_;

  std::vector<IfaceEntry> ifaces_;
};

}  // namespace midrr
