#include "core/wandering_network.h"

#include <cmath>
#include <utility>

#include "telemetry/perf_counters.h"

namespace viator::wli {

// The latency plane (self-contained below core) mirrors these enums as
// plain byte dimensions; keep its tables in lock step with the real ones.
static_assert(telemetry::lat::kClassCount ==
                  static_cast<std::size_t>(ShuttleKind::kKindCount),
              "lat::kClassCount must mirror ShuttleKind");
static_assert(telemetry::lat::kRoleCount ==
                  static_cast<std::size_t>(node::FirstLevelRole::kRoleCount),
              "lat::kRoleCount must mirror node::FirstLevelRole");

WanderingNetwork::WanderingNetwork(sim::Simulator& simulator,
                                   net::Topology& topology,
                                   const WnConfig& config, std::uint64_t seed)
    : simulator_(simulator),
      topology_(topology),
      config_(config),
      rng_(seed),
      // Trace-id stream is forked off the seed with its own salt so tracing
      // never consumes draws from (or correlates with) the network stream.
      telemetry_(simulator, config.telemetry, seed ^ 0xd6e8feb86659fd93ULL),
      fabric_(simulator, topology, Rng(seed ^ 0x5bd1e995), stats_),
      shuttles_injected_(stats_.GetCounter("wn.shuttles_injected")),
      excluded_dropped_(stats_.GetCounter("wn.excluded_dropped")),
      router_absorbed_(stats_.GetCounter("wn.router_absorbed")),
      unroutable_(stats_.GetCounter("wn.unroutable")),
      overlays_(topology),
      horizontal_(config.horizontal),
      vertical_(config.vertical),
      resonance_(config.resonance) {
  // Past-time schedules are clamped silently by the simulator; surface the
  // count as a regular metric so exports and gates can watch it.
  simulator_.BindClampCounter(&stats_.GetCounter("sim.clamped_events"));
  // Per-hop queue/transit stages and in-fabric losses attribute to this
  // network's lane.
  fabric_.BindLatencyLane(&lat_lane_);
}

Ship& WanderingNetwork::AddShip(net::NodeId node, node::ShipClass ship_class) {
  if (ships_.size() <= node) {
    ships_.resize(node + 1);
    ship_digests_.resize(node + 1);
  }
  if (!ships_[node]) {
    ships_[node] = std::make_unique<Ship>(
        *this, node, ship_class, config_.quota,
        node::Capabilities::ForGeneration(config_.generation), rng_.Fork());
    ++ship_count_;
    fabric_.SetReceiveHandler(node, [this, node](net::Frame& frame) {
      // The frame is ours to consume: moving the shuttle out of the payload
      // saves a deep copy (code image + payload + genome) on every hop.
      if (auto* shuttle = std::any_cast<Shuttle>(&frame.payload)) {
        ships_[node]->Receive(std::move(*shuttle), frame.from);
      }
    });
  }
  return *ships_[node];
}

void WanderingNetwork::PopulateAllNodes() {
  const std::size_t nodes = topology_.node_count();
  if (ships_.size() < nodes) {
    ships_.resize(nodes);
    ship_digests_.resize(nodes);
  }
  for (net::NodeId n = 0; n < nodes; ++n) {
    AddShip(n, node::ShipClass::kServer);
  }
}

Ship* WanderingNetwork::ship(net::NodeId node) {
  return node < ships_.size() ? ships_[node].get() : nullptr;
}

const Ship* WanderingNetwork::ship(net::NodeId node) const {
  return node < ships_.size() ? ships_[node].get() : nullptr;
}

void WanderingNetwork::ForEachShip(const std::function<void(Ship&)>& fn) {
  for (auto& ship : ships_) {
    if (ship) fn(*ship);
  }
}

Result<Digest> WanderingNetwork::PublishProgram(const vm::Program& program,
                                                net::NodeId origin) {
  auto digest = repository_.Install(program);
  if (!digest.ok()) return digest;
  origins_[*digest] = origin;
  // The origin ship holds the code resident from the start.
  if (Ship* origin_ship = ship(origin); origin_ship != nullptr) {
    (void)origin_ship->os().AdmitProgram(program);
  }
  return digest;
}

const vm::Program* WanderingNetwork::FindPublished(Digest digest) const {
  return repository_.Find(digest);
}

net::NodeId WanderingNetwork::OriginOf(Digest digest) const {
  const auto it = origins_.find(digest);
  return it == origins_.end() ? net::kInvalidNode : it->second;
}

Status WanderingNetwork::Inject(Shuttle shuttle) {
  const net::NodeId src = shuttle.header.source;
  if (src >= ships_.size() || !ships_[src]) {
    return InvalidArgument("no ship at source node");
  }
  // A freshly injected capsule starts a new trace; the inject span is the
  // root of its causal tree. Both calls are inert when tracing is off.
  if (telemetry_.tracing_enabled() && !shuttle.trace.active()) {
    shuttle.trace = telemetry_.StartTrace();
  }
  telemetry::SpanScope span(telemetry_, shuttle.trace, src, "wn", "inject");
  shuttle.trace = span.context();
  // Lifecycle birth: injection is where the end-to-end delivery clock
  // starts (self-deliveries included; Receive closes them immediately).
  VIATOR_LAT_BIRTH(&lat_lane_, shuttle, simulator_.now());
  if (shuttle.header.destination == src) {
    ships_[src]->Receive(std::move(shuttle), src);
    return OkStatus();
  }
  shuttles_injected_.Add();
  return Dispatch(src, std::move(shuttle));
}

Status WanderingNetwork::Dispatch(net::NodeId at, Shuttle shuttle) {
  const net::NodeId dst = shuttle.header.destination;
  const bool probe = shuttle.header.kind == ShuttleKind::kProbe;
  // Births not seen by Inject (ship-originated replies, jets, migrations)
  // start their clock here; re-dispatched flights (lat_id set) are no-ops.
  VIATOR_LAT_BIRTH(&lat_lane_, shuttle, simulator_.now());
  if (dst == at) {
    if (ships_[at]) ships_[at]->Receive(std::move(shuttle), at);
    return OkStatus();
  }
  // SRP community enforcement: excluded ships get no service. Probes are
  // exempt — the health plane must keep observing excluded ships too.
  if (!probe && reputation_.IsExcluded(shuttle.header.source)) {
    excluded_dropped_.Add();
    VIATOR_LAT_DROP(&lat_lane_, shuttle, simulator_.now());
    shuttle_pool_.Release(std::move(shuttle));
    return PermissionDenied("source ship excluded from community");
  }
  net::NodeId next = net::kInvalidNode;
  // Routing services may keep mutable state (route caches, pending-route
  // buffers); probes bypass the chooser so measurement never feeds it.
  if (next_hop_chooser_ && !probe) {
    next = next_hop_chooser_(at, shuttle);
    if (next == at) {
      // Chooser absorbed the shuttle (e.g. buffered pending route
      // discovery); nothing to transmit now.
      router_absorbed_.Add();
      return OkStatus();
    }
  }
  if (next == net::kInvalidNode) {
    // A route-cache hit, or on a miss one row fill: a BFS over the CSR
    // adjacency (net/topology.h). The probe quantifies it per shard and
    // per run.
    VIATOR_PERF_SCOPE(kRouteNextHop);
    next = topology_.NextHop(at, dst);
  }
  if (next == net::kInvalidNode) {
    unroutable_.Add();
    VIATOR_LAT_DROP(&lat_lane_, shuttle, simulator_.now());
    shuttle_pool_.Release(std::move(shuttle));
    return NotFound("no route to destination");
  }
  net::Frame frame;
  frame.from = at;
  frame.to = next;
  frame.size_bytes = shuttle.WireSize();
  frame.telemetry = probe;
  // Mirror the attribution keys onto the frame so the fabric can class
  // queue/hop stages and close the flight on in-fabric loss without
  // looking inside the payload.
  frame.lat_class = static_cast<std::uint8_t>(shuttle.header.kind);
  frame.lat_id = shuttle.lat_id;
  frame.payload = std::move(shuttle);
  return fabric_.Send(std::move(frame));
}

void WanderingNetwork::HandleProbe(Ship& at, Shuttle probe,
                                   net::NodeId arrived_from) {
  if (probe_handler_) {
    probe_handler_(at, std::move(probe), arrived_from);
    return;
  }
  stats_.GetCounter("wn.probe_unhandled").Add();
}

void WanderingNetwork::HandleBoundary(Ship& at, Shuttle shuttle,
                                      net::NodeId arrived_from) {
  if (boundary_handler_) {
    boundary_handler_(at, std::move(shuttle), arrived_from);
    return;
  }
  stats_.GetCounter("wn.boundary_unhandled").Add();
}

FunctionId WanderingNetwork::DeployFunction(net::NodeId host,
                                            NetFunction function) {
  if (function.id == 0) function.id = NextFunctionId();
  placements_[function.id] = host;
  placement_roles_[function.id] = function.role;
  ledger_.RecordPlacement(function.id, host, simulator_.now());
  if (Ship* host_ship = ship(host); host_ship != nullptr) {
    host_ship->functions().Install(function);
    (void)host_ship->SwitchRole(function.role,
                                node::SwitchMechanism::kResidentSoftware);
  }
  return function.id;
}

void WanderingNetwork::NotifyFunctionInstalled(net::NodeId host,
                                               const NetFunction& function) {
  placements_[function.id] = host;
  placement_roles_[function.id] = function.role;
  ledger_.RecordPlacement(function.id, host, simulator_.now());
  if (Ship* host_ship = ship(host); host_ship != nullptr) {
    (void)host_ship->SwitchRole(function.role,
                                node::SwitchMechanism::kResidentSoftware);
  }
  stats_.GetCounter("wn.migrations_landed").Add();
}

Status WanderingNetwork::MigrateFunction(FunctionId function, net::NodeId to) {
  const auto placed = placements_.find(function);
  if (placed == placements_.end()) {
    return NotFound("function has no placement");
  }
  const net::NodeId from_node = placed->second;
  if (from_node == to) return OkStatus();
  Ship* from = ship(from_node);
  Ship* target = ship(to);
  if (from == nullptr || target == nullptr) {
    return NotFound("migration endpoint has no ship");
  }
  const NetFunction* fn = from->functions().Find(function);
  if (fn == nullptr) return NotFound("function not resident on host");

  // The function travels as a code shuttle: program image (if any) plus a
  // genome carrying the function descriptor — paying real network cost.
  Shuttle carrier;
  carrier.header.source = from_node;
  carrier.header.destination = to;
  carrier.header.kind = ShuttleKind::kCode;
  ShipBlueprint genome;
  genome.role = fn->role;
  genome.next_step = from->os().next_step();
  genome.functions.push_back(*fn);
  carrier.genome = EncodeBlueprint(genome);
  if (const vm::Program* program = FindPublished(fn->program_digest);
      program != nullptr) {
    carrier.code_image = program->Serialize();
  }
  if (config_.auth_key != 0) {
    carrier.auth_tag = KeyedTag(config_.auth_key, carrier.code_image);
  }

  if (telemetry_.tracing_enabled()) carrier.trace = telemetry_.StartTrace();
  telemetry::SpanScope span(telemetry_, carrier.trace, from_node, "wn",
                            "migrate");
  carrier.trace = span.context();

  from->functions().Remove(function);
  placements_[function] = to;  // provisional; confirmed on install
  ++migrations_executed_;
  stats_.GetCounter("wn.migrations_started").Add();
  trace_.Log(simulator_.now(), sim::TraceLevel::kInfo, "pmp",
             "migrate fn " + std::to_string(function) + " " +
                 std::to_string(from_node) + " -> " + std::to_string(to));
  return Dispatch(from_node, std::move(carrier));
}

void WanderingNetwork::ExecuteMigrations() {
  const auto migrations =
      horizontal_.Decide(placements_, placement_roles_, demand_);
  for (const auto& migration : migrations) {
    (void)MigrateFunction(migration.function, migration.to);
  }
}

void WanderingNetwork::Pulse() {
  VIATOR_PERF_SCOPE(kWnPulse);
  ++pulses_;
  const sim::TimePoint now = simulator_.now();

  // 1. Fact lifecycle: sweep every ship's store, expire dead functions.
  std::size_t facts_died = 0;
  std::size_t functions_died = 0;
  ForEachShip([&](Ship& s) {
    facts_died += s.facts().Sweep(now);
    functions_died += s.functions().Expire(s.facts());
  });
  stats_.GetCounter("wn.facts_expired").Add(facts_died);
  stats_.GetCounter("wn.functions_expired").Add(functions_died);
  // Drop placements of expired functions.
  for (auto it = placements_.begin(); it != placements_.end();) {
    Ship* host = ship(it->second);
    if (host == nullptr || host->functions().Find(it->first) == nullptr) {
      ledger_.RecordRemoval(it->first, now);
      placement_roles_.erase(it->first);
      it = placements_.erase(it);
    } else {
      ++it;
    }
  }

  // 2. Horizontal wandering (4G: adaptive self-distribution).
  if (config_.enable_horizontal && config_.generation >= 4) {
    ExecuteMigrations();
  }

  // 3. Vertical wandering: spawn overlays from intra-node class activity.
  if (config_.enable_vertical) {
    std::map<net::NodeId, std::map<node::SecondLevelClass, double>> activity;
    ForEachShip([&](Ship& s) {
      for (const auto& [cls, amount] : s.DrainClassActivity()) {
        activity[s.id()][static_cast<node::SecondLevelClass>(cls)] += amount;
      }
    });
    for (const auto& decision : vertical_.Decide(activity)) {
      auto existing = class_overlays_.find(decision.cls);
      if (existing != class_overlays_.end()) {
        continue;  // overlay for this class already spawned
      }
      auto spawned = overlays_.Spawn(
          std::string(node::SecondLevelClassName(decision.cls)),
          decision.members);
      if (spawned.ok()) {
        class_overlays_[decision.cls] = *spawned;
        stats_.GetCounter("wn.overlays_spawned").Add();
      }
    }
  }

  // 4. Network resonance: emergent functions from fact co-occurrence.
  ForEachShip([&](Ship& s) {
    for (FactKey key : s.facts().Keys()) resonance_.Observe(s.id(), key);
  });
  for (const auto& group : resonance_.DetectAndReset()) {
    NetFunction fn;
    fn.id = NextFunctionId();
    fn.name = "resonant-" + std::to_string(fn.id);
    // The emergent role is derived deterministically from the group.
    Digest h = kFnvOffsetBasis;
    for (FactKey key : group) h = HashCombineWord(h, key);
    fn.role = static_cast<node::FirstLevelRole>(
        h % static_cast<std::uint64_t>(node::FirstLevelRole::kRoleCount));
    fn.cls = node::DefaultClassFor(fn.role);
    fn.fact_keys = group;
    const net::NodeId host = demand_.HottestNode(fn.role);
    const net::NodeId target =
        host != net::kInvalidNode && ship(host) != nullptr
            ? host
            : (ship_count_ > 0 ? FirstShipNode() : net::kInvalidNode);
    if (target != net::kInvalidNode) {
      DeployFunction(target, fn);
      ++functions_emerged_;
      stats_.GetCounter("wn.functions_emerged").Add();
    }
  }

  // 5. Feedback/cluster maintenance.
  demand_.Decay();
  clusters_.Decay();
  overlays_.RefreshPaths();

  stats_.GetTimeSeries("wn.role_diversity").Record(now, RoleDiversity());
  // Route-cache effectiveness is deliberately NOT mirrored here: cache
  // temperature is an execution detail (a resumed snapshot starts cold), and
  // this registry is genesis-compared bit-for-bit. Call
  // net::PublishRouteCacheStats(stats(), topology()) at report time instead;
  // the sharded merge layer publishes per-shard gauges itself.
}

void WanderingNetwork::StartPulse(sim::TimePoint until) {
  simulator_.ScheduleAfter(
      config_.pulse_interval,
      [this, until] {
        Pulse();
        if (simulator_.now() + config_.pulse_interval <= until) {
          StartPulse(until);
        }
      });
}

void WanderingNetwork::RefreshShipDigests() {
  for (net::NodeId node : changed_ships_) {
    ship_digests_[node] = ships_[node]->TakeDigest();
  }
  changed_ships_.clear();
}

namespace {

void MixSections(WanderingNetwork& network, HashArchive& archive) {
  network.ForEachSection([&](std::uint32_t, bool decision_state, auto&& visit) {
    if (decision_state) visit(archive);
  });
}

}  // namespace

void WanderingNetwork::MixDigest(Hasher& hasher) const {
  HashArchive archive(hasher);
  MixSections(const_cast<WanderingNetwork&>(*this), archive);
}

void WanderingNetwork::MixDigestUncached(Hasher& hasher) const {
  HashArchive archive(hasher, /*uncached=*/true);
  MixSections(const_cast<WanderingNetwork&>(*this), archive);
}

net::NodeId WanderingNetwork::FirstShipNode() const {
  for (net::NodeId n = 0; n < ships_.size(); ++n) {
    if (ships_[n]) return n;
  }
  return net::kInvalidNode;
}

double WanderingNetwork::RoleDiversity() const {
  const auto census = RoleCensus();
  double total = 0.0;
  for (const auto& [role, count] : census) {
    total += static_cast<double>(count);
  }
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (const auto& [role, count] : census) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

std::map<node::FirstLevelRole, std::size_t> WanderingNetwork::RoleCensus()
    const {
  std::map<node::FirstLevelRole, std::size_t> census;
  for (const auto& ship : ships_) {
    if (ship) ++census[std::as_const(*ship).os().current_role()];
  }
  return census;
}

}  // namespace viator::wli
