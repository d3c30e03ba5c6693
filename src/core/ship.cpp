#include "core/ship.h"

#include <algorithm>

#include "core/wandering_network.h"
#include "telemetry/latency_plane.h"
#include "telemetry/perf_counters.h"
#include "telemetry/telemetry.h"
#include "vm/assembler.h"

namespace viator::wli {

Ship::Ship(WanderingNetwork& network, net::NodeId id,
           node::ShipClass ship_class, const node::ResourceQuota& quota,
           const node::Capabilities& caps, Rng rng)
    : network_(network),
      id_(id),
      class_(ship_class),
      os_(quota, caps),
      facts_(network.config().fact_config),
      rng_(rng) {
  List();  // a new ship has no digest yet
}

void Ship::List() {
  listed_ = true;
  network_.ShipChanged(id_);
}

Digest Ship::TakeDigest() {
  listed_ = false;
  Hasher hasher;
  HashFields(*this, hasher);
  return hasher.digest();
}

void Ship::SetRoleHandler(node::FirstLevelRole role, NativeHandler handler) {
  role_handlers_[static_cast<std::size_t>(role)] = std::move(handler);
}

bool Ship::HasRoleHandler(node::FirstLevelRole role) const {
  return static_cast<bool>(role_handlers_[static_cast<std::size_t>(role)]);
}

Status Ship::SendShuttle(Shuttle shuttle) {
  if (shuttle.header.source == net::kInvalidNode) {
    shuttle.header.source = id_;
  }
  return network_.Dispatch(id_, std::move(shuttle));
}

void Ship::Receive(Shuttle shuttle, net::NodeId arrived_from) {
  // Health probes are measurement, not workload: they are handed to the
  // probe plane before TTL accounting, per-message feedback, counters or
  // consumption, so a probed ship behaves exactly like an unprobed one.
  if (shuttle.header.kind == ShuttleKind::kProbe) [[unlikely]] {
    // A probe's first waypoint closes its delivery clock (injection → first
    // intercept); the itinerary's later hops re-close as no-ops.
    VIATOR_LAT_DELIVERED(&network_.lat_lane(), shuttle,
                         network_.simulator().now());
    network_.HandleProbe(*this, std::move(shuttle), arrived_from);
    return;
  }
  MarkChanged();
  if (shuttle.header.destination != id_) {
    // Transit: decrement TTL and forward. Ships "could do some processing"
    // on transit shuttles too; the per-message feedback dimension observes
    // every forwarded message.
    if (shuttle.header.ttl == 0) {
      network_.stats().GetCounter("wn.ttl_expired").Add();
      VIATOR_LAT_DROP(&network_.lat_lane(), shuttle,
                      network_.simulator().now());
      network_.shuttle_pool().Release(std::move(shuttle));
      return;
    }
    --shuttle.header.ttl;
    ++shuttles_forwarded_;
    // Causal hop: the next hop's span becomes a child of this forward.
    telemetry::SpanScope span(network_.telemetry(), shuttle.trace, id_,
                              "ship", "forward");
    shuttle.trace = span.context();
    network_.feedback().Publish(
        FeedbackSignal{FeedbackDimension::kPerMessage, id_,
                       shuttle.header.flow_id, 1.0,
                       network_.simulator().now()});
    (void)network_.Dispatch(id_, std::move(shuttle));
    return;
  }
  if (shuttle.in_transit()) [[unlikely]] {
    // This ship is only the shard-exit gateway: the capsule's journey
    // continues in another topology shard. Hand it to the sharding layer
    // instead of consuming it.
    network_.HandleBoundary(*this, std::move(shuttle), arrived_from);
    return;
  }
  Consume(shuttle, arrived_from);
  // The shuttle dies here: recycle its shell (buffer capacity) for the next
  // sender instead of freeing it.
  network_.shuttle_pool().Release(std::move(shuttle));
}

void Ship::Consume(const Shuttle& shuttle, net::NodeId arrived_from) {
  VIATOR_PERF_SCOPE(kShipConsume);
  // DCP dock: the shuttle morphs to this ship class's interface; the ship's
  // congruence tracker simultaneously learns the traffic structure.
  Shuttle docked = shuttle;
  // All work this delivery causes (handlers, services, replies) becomes a
  // child of the consume span.
  telemetry::SpanScope span(network_.telemetry(), docked.trace, id_, "ship",
                            "consume");
  docked.trace = span.context();
  // Exec stage opens at consumption entry: for shuttles that park awaiting
  // a code fetch, OnExecDone later measures the whole fetch wait.
  VIATOR_LAT_EXEC_ENTER(&network_.lat_lane(), docked,
                        network_.simulator().now());
  const MorphOutcome morph = network_.morphing().MorphForDock(docked);
  if (!morph.success) {
    network_.stats().GetCounter("wn.dock_rejected").Add();
    VIATOR_LAT_DROP(&network_.lat_lane(), docked, network_.simulator().now());
    return;
  }
  if (!morph.already_matched) {
    network_.stats().GetCounter("wn.morphs").Add();
    network_.stats()
        .GetHistogram("wn.morph_latency_ns")
        .Record(static_cast<double>(morph.latency));
  }
  congruence_.Observe(docked.header.interface_id);

  ++shuttles_consumed_;
  network_.clusters().ObserveInteraction(id_, docked.header.source);
  network_.demand().Record(id_, os_.current_role(), 1.0);

  switch (docked.header.kind) {
    case ShuttleKind::kData: {
      if (docked.code_digest != 0) {
        const vm::Program* program = os_.code_cache().Get(docked.code_digest);
        if (program == nullptr) {
          // Demand code loading: park the shuttle, fetch from the origin.
          ++code_misses_;
          if (os_.resources().AcquirePendingSlot().ok()) {
            waiting_for_code_[docked.code_digest].push_back(docked);
            const net::NodeId origin = network_.OriginOf(docked.code_digest);
            if (origin != net::kInvalidNode && origin != id_) {
              Shuttle request =
                  Shuttle::CodeRequest(id_, origin, docked.code_digest);
              request.trace = docked.trace;
              (void)SendShuttle(std::move(request));
            }
          } else {
            network_.stats().GetCounter("wn.pending_overflow").Add();
            // No pending slot: the shuttle is discarded, not parked.
            VIATOR_LAT_DROP(&network_.lat_lane(), docked,
                            network_.simulator().now());
          }
          return;  // sink runs when the parked shuttle finally executes
        }
        ExecuteShuttleCode(docked, *program);
      } else {
        const auto& handler =
            role_handlers_[static_cast<std::size_t>(os_.current_role())];
        if (handler) handler(*this, docked);
      }
      // Usage statistics (paper §E): every data shuttle served by the
      // active role counts as one use of the functions filling it.
      for (const NetFunction* fn :
           functions_.ForRole(os_.current_role())) {
        network_.ledger().RecordUse(fn->id);
      }
      break;
    }
    case ShuttleKind::kCode:
      HandleCodeShuttle(docked);
      break;
    case ShuttleKind::kCodeRequest:
      HandleCodeRequest(docked);
      break;
    case ShuttleKind::kCodeReply:
      HandleCodeReply(docked);
      break;
    case ShuttleKind::kKnowledge:
      HandleKnowledge(docked);
      break;
    case ShuttleKind::kJet:
      HandleJet(docked);
      break;
    case ShuttleKind::kControl:
      if (control_handler_) control_handler_(*this, docked);
      break;
    case ShuttleKind::kProbe:  // intercepted at the top of Receive()
    case ShuttleKind::kKindCount:
      break;
  }

  // End-to-end delivery closes here (parked shuttles close later, in
  // ReleaseWaiters, so their delivery time includes the code-fetch wait).
  VIATOR_LAT_DELIVERED(&network_.lat_lane(), docked,
                       network_.simulator().now());
  if (delivery_sink_) delivery_sink_(*this, docked);
  (void)arrived_from;
}

void Ship::ExecuteShuttleCode(const Shuttle& shuttle,
                              const vm::Program& program) {
  VIATOR_PERF_SCOPE(kEeExecute);
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace, id_, "ee",
                            "execute");
  auto& ee = os_.GetOrCreateEe(node::DefaultClassFor(os_.current_role()));
  current_shuttle_ = &shuttle;
  last_emissions_.clear();
  auto result = ee.Execute(program, *this, os_.resources());
  current_shuttle_ = nullptr;
  ++code_executions_;
  VIATOR_LAT_EXEC_DONE(
      &network_.lat_lane(), shuttle, network_.simulator().now(),
      static_cast<std::uint8_t>(os_.current_role()));
  class_activity_[static_cast<int>(ee.function_class())] += 1.0;
  if (!result.ok()) {
    network_.stats().GetCounter("wn.exec_rejected").Add();
    return;
  }
  if (result->reason == vm::ExitReason::kFault) {
    network_.stats().GetCounter("wn.exec_faults").Add();
    // Faulting code is evidence of an unfair/broken source ship.
    network_.reputation().ReportInteraction(shuttle.header.source, false);
  } else if (result->reason == vm::ExitReason::kOutOfFuel) {
    network_.stats().GetCounter("wn.exec_out_of_fuel").Add();
  }
  network_.stats()
      .GetHistogram("wn.exec_fuel")
      .Record(static_cast<double>(result->fuel_used));
}

void Ship::HandleCodeShuttle(const Shuttle& shuttle) {
  // Capsule authorization: with a community key configured, unsigned or
  // mis-signed code is refused and the sender reported. The tag covers the
  // code image (possibly empty for genome-only carriers).
  const std::uint64_t key = network_.config().auth_key;
  if (key != 0) {
    const std::uint64_t expected = KeyedTag(key, shuttle.code_image);
    if (shuttle.auth_tag != expected) {
      network_.stats().GetCounter("wn.code_unauthorized").Add();
      network_.reputation().ReportInteraction(shuttle.header.source, false);
      return;
    }
  }
  // Genome-only carriers (native functions migrating) have no code image.
  if (!shuttle.code_image.empty()) {
    auto program = vm::Program::Deserialize(shuttle.code_image);
    if (!program.ok()) {
      network_.stats().GetCounter("wn.code_malformed").Add();
      network_.reputation().ReportInteraction(shuttle.header.source, false);
      return;
    }
    auto admitted = os_.AdmitProgram(*program);
    if (!admitted.ok()) {
      network_.stats().GetCounter("wn.code_rejected").Add();
      return;
    }
    network_.stats().GetCounter("wn.code_installed").Add();
    ReleaseWaiters(*admitted);
  }

  // A code shuttle may carry a function genome: install it and take the
  // role over (this is how horizontal wandering lands).
  if (!shuttle.genome.empty()) {
    auto blueprint = DecodeBlueprint(shuttle.genome);
    if (blueprint.ok()) {
      (void)ApplyBlueprint(*blueprint);
      for (const NetFunction& fn : blueprint->functions) {
        network_.NotifyFunctionInstalled(id_, fn);
      }
    }
  }
}

void Ship::HandleCodeRequest(const Shuttle& shuttle) {
  const Digest digest = shuttle.code_digest;
  const vm::Program* program = os_.code_cache().Get(digest);
  if (program == nullptr) program = network_.FindPublished(digest);
  if (program == nullptr) {
    network_.stats().GetCounter("wn.code_request_miss").Add();
    return;
  }
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace, id_, "ship",
                            "code_reply");
  Shuttle reply;
  reply.header.source = id_;
  reply.header.destination = shuttle.header.source;
  reply.header.kind = ShuttleKind::kCodeReply;
  reply.code_digest = digest;
  reply.code_image = program->Serialize();
  reply.trace = span.context();
  const std::uint64_t key = network_.config().auth_key;
  if (key != 0) reply.auth_tag = KeyedTag(key, reply.code_image);
  (void)SendShuttle(std::move(reply));
}

void Ship::HandleCodeReply(const Shuttle& shuttle) {
  auto program = vm::Program::Deserialize(shuttle.code_image);
  if (!program.ok()) return;
  const std::uint64_t key = network_.config().auth_key;
  if (key != 0 &&
      shuttle.auth_tag != KeyedTag(key, shuttle.code_image)) {
    network_.stats().GetCounter("wn.code_unauthorized").Add();
    return;
  }
  if (!os_.AdmitProgram(*program).ok()) return;
  ReleaseWaiters(program->digest());
}

void Ship::ReleaseWaiters(Digest digest) {
  const auto it = waiting_for_code_.find(digest);
  if (it == waiting_for_code_.end()) return;
  std::vector<Shuttle> parked = std::move(it->second);
  waiting_for_code_.erase(it);
  const vm::Program* program = os_.code_cache().Get(digest);
  for (const Shuttle& shuttle : parked) {
    os_.resources().ReleasePendingSlot();
    if (program != nullptr) {
      ExecuteShuttleCode(shuttle, *program);
      VIATOR_LAT_DELIVERED(&network_.lat_lane(), shuttle,
                           network_.simulator().now());
      if (delivery_sink_) delivery_sink_(*this, shuttle);
    } else {
      VIATOR_LAT_DROP(&network_.lat_lane(), shuttle,
                      network_.simulator().now());
    }
  }
}

void Ship::HandleKnowledge(const Shuttle& shuttle) {
  auto kq = DecodeKnowledgeQuantum(shuttle.genome);
  if (!kq.ok()) {
    network_.stats().GetCounter("wn.kq_malformed").Add();
    return;
  }
  const sim::TimePoint now = network_.simulator().now();
  for (const FactSnapshot& fact : kq->facts) {
    facts_.Touch(fact.key, fact.value, fact.weight, now);
  }
  // payload[0] == 1 requests installing the carried function here.
  if (!shuttle.payload.empty() && shuttle.payload[0] == 1) {
    functions_.Install(kq->function);
    network_.NotifyFunctionInstalled(id_, kq->function);
  }
  network_.stats().GetCounter("wn.kq_absorbed").Add();
}

void Ship::HandleJet(Shuttle shuttle) {
  if (!os_.capabilities().self_replicating) {
    network_.stats().GetCounter("wn.jet_refused").Add();
    return;
  }
  // Security class clamps the replication budget (runaway containment).
  shuttle.replication_budget =
      std::min(shuttle.replication_budget, network_.config().jet_budget_cap);
  if (shuttle.code_digest != 0) {
    const vm::Program* program = os_.code_cache().Get(shuttle.code_digest);
    if (program == nullptr && !shuttle.code_image.empty()) {
      auto inline_program = vm::Program::Deserialize(shuttle.code_image);
      if (inline_program.ok() && os_.AdmitProgram(*inline_program).ok()) {
        program = os_.code_cache().Get(shuttle.code_digest);
      }
    }
    if (program != nullptr) {
      ExecuteShuttleCode(shuttle, *program);
    } else {
      network_.stats().GetCounter("wn.jet_code_missing").Add();
    }
  }
}

Status Ship::SwitchRole(node::FirstLevelRole role,
                        node::SwitchMechanism mechanism) {
  MarkChanged();
  auto latency = os_.RequestRoleSwitch(role, mechanism);
  if (!latency.ok()) return latency.status();
  network_.stats()
      .GetHistogram("wn.role_switch_ns")
      .Record(static_cast<double>(*latency));
  network_.stats().GetCounter("wn.role_switches").Add();
  network_.feedback().Publish(FeedbackSignal{
      FeedbackDimension::kPerConfiguration, id_,
      static_cast<std::uint64_t>(role), 1.0, network_.simulator().now()});
  return OkStatus();
}

ShipBlueprint Ship::ToBlueprint() const {
  ShipBlueprint bp;
  bp.ship_class = class_;
  bp.role = os_.current_role();
  bp.next_step = os_.next_step();
  for (const auto& fact : facts_.TopByWeight(kBlueprintFacts)) {
    bp.facts.push_back(FactSnapshot{fact.key, fact.value, fact.weight});
  }
  for (const auto& slot : os_.hardware().slots()) {
    bp.modules.push_back(ModuleGene{
        slot.module.module_id, slot.module.accelerates,
        slot.module.gate_count, slot.module.speedup,
        slot.module.driver_digest});
  }
  bp.functions = functions_.functions();
  return bp;
}

Status Ship::ApplyBlueprint(const ShipBlueprint& blueprint) {
  MarkChanged();
  // Role state.
  (void)os_.RequestRoleSwitch(blueprint.role,
                              node::SwitchMechanism::kResidentSoftware);
  os_.set_next_step(blueprint.next_step);
  // Facts.
  const sim::TimePoint now = network_.simulator().now();
  for (const FactSnapshot& fact : blueprint.facts) {
    facts_.Touch(fact.key, fact.value, fact.weight, now);
  }
  // Functions.
  for (const NetFunction& fn : blueprint.functions) {
    functions_.Install(fn);
  }
  // Hardware genes: best effort, gated by generation and gate budget.
  if (os_.capabilities().hardware_reconfigurable) {
    for (const ModuleGene& gene : blueprint.modules) {
      node::HardwareModule module;
      module.module_id = gene.module_id;
      module.accelerates = gene.accelerates;
      module.gate_count = gene.gate_count;
      module.speedup = gene.speedup;
      module.driver_digest = gene.driver_digest;
      (void)os_.hardware().Install(module);
    }
  }
  network_.stats().GetCounter("wn.blueprints_applied").Add();
  return OkStatus();
}

SelfDescription Ship::DescribeSelf() const {
  SelfDescription desc;
  desc.ship = id_;
  desc.ship_class = class_;
  desc.role = os_.current_role();
  desc.ee_count = static_cast<std::uint32_t>(os_.ee_count());
  desc.fact_count = facts_.size();
  const auto genome = EncodeBlueprint(ToBlueprint());
  desc.descriptor_digest = HashBytes(genome);
  if (!honest_) {
    // An unfair ship advertises a bogus commitment (Def. 2(1) violation).
    desc.descriptor_digest ^= 0xdeadbeefULL;
  }
  return desc;
}

std::unordered_map<int, double> Ship::DrainClassActivity() {
  MarkChanged();
  std::unordered_map<int, double> out;
  out.swap(class_activity_);
  return out;
}

Result<std::int64_t> Ship::Invoke(vm::Syscall id,
                                  std::span<const std::int64_t> args) {
  MarkChanged();
  using vm::Syscall;
  switch (id) {
    case Syscall::kNodeId:
      return static_cast<std::int64_t>(id_);
    case Syscall::kTime:
      return static_cast<std::int64_t>(network_.simulator().now() / 1000);
    case Syscall::kGetFact:
      return facts_.Get(static_cast<FactKey>(args[0])).value_or(0);
    case Syscall::kPutFact: {
      const double weight =
          std::max(0.1, static_cast<double>(args[2]) / 100.0);
      facts_.Touch(static_cast<FactKey>(args[0]), args[1], weight,
                   network_.simulator().now());
      return std::int64_t{1};
    }
    case Syscall::kEraseFact:
      return static_cast<std::int64_t>(
          facts_.Erase(static_cast<FactKey>(args[0])));
    case Syscall::kSendValue: {
      const auto dst = static_cast<net::NodeId>(args[0]);
      if (dst >= network_.topology().node_count()) return std::int64_t{0};
      // Pool-backed send: kSendValue is the workload inner loop, and a
      // recycled shell makes the reply allocation-free at steady state.
      const std::int64_t word[] = {args[2]};
      Shuttle out = network_.shuttle_pool().AcquireData(
          id_, dst, word, static_cast<std::uint64_t>(args[1]));
      if (current_shuttle_ != nullptr) out.trace = current_shuttle_->trace;
      return static_cast<std::int64_t>(SendShuttle(std::move(out)).ok());
    }
    case Syscall::kRole:
      return static_cast<std::int64_t>(os_.current_role());
    case Syscall::kRequestRole: {
      const auto role_index = static_cast<std::uint64_t>(args[0]);
      if (role_index >=
          static_cast<std::uint64_t>(node::FirstLevelRole::kRoleCount)) {
        return std::int64_t{0};
      }
      return static_cast<std::int64_t>(
          SwitchRole(static_cast<node::FirstLevelRole>(role_index),
                     node::SwitchMechanism::kResidentSoftware)
              .ok());
    }
    case Syscall::kNeighborCount:
      return static_cast<std::int64_t>(
          network_.topology().Neighbors(id_).size());
    case Syscall::kNeighbor: {
      const auto neighbors = network_.topology().Neighbors(id_);
      const auto index = static_cast<std::uint64_t>(args[0]);
      if (index >= neighbors.size()) return std::int64_t{-1};
      return static_cast<std::int64_t>(neighbors[index]);
    }
    case Syscall::kReplicate: {
      if (current_shuttle_ == nullptr ||
          current_shuttle_->header.kind != ShuttleKind::kJet ||
          current_shuttle_->replication_budget == 0) {
        return std::int64_t{0};
      }
      if (!os_.capabilities().self_replicating) return std::int64_t{0};
      const auto dst = static_cast<net::NodeId>(args[0]);
      if (dst >= network_.topology().node_count() || dst == id_) {
        return std::int64_t{0};
      }
      Shuttle replica = *current_shuttle_;
      replica.header.source = id_;
      replica.header.destination = dst;
      replica.header.ttl = 64;
      --replica.replication_budget;
      network_.stats().GetCounter("wn.jet_replications").Add();
      return static_cast<std::int64_t>(SendShuttle(std::move(replica)).ok());
    }
    case Syscall::kPayloadSize:
      return current_shuttle_ == nullptr
                 ? std::int64_t{0}
                 : static_cast<std::int64_t>(current_shuttle_->payload.size());
    case Syscall::kPayload: {
      if (current_shuttle_ == nullptr) return std::int64_t{0};
      const auto index = static_cast<std::uint64_t>(args[0]);
      if (index >= current_shuttle_->payload.size()) return std::int64_t{0};
      return current_shuttle_->payload[index];
    }
    case Syscall::kEmit:
      last_emissions_.push_back(args[0]);
      return std::int64_t{1};
    case Syscall::kRandom:
      return static_cast<std::int64_t>(rng_.Next() >> 1);
    case Syscall::kLog:
      network_.trace().Log(network_.simulator().now(),
                           sim::TraceLevel::kDebug,
                           "ship" + std::to_string(id_),
                           "log " + std::to_string(args[0]));
      return std::int64_t{1};
    case Syscall::kMorph: {
      if (current_shuttle_ == nullptr) return std::int64_t{0};
      const auto cls_index = static_cast<std::uint64_t>(args[0]);
      if (cls_index > static_cast<std::uint64_t>(node::ShipClass::kAgent)) {
        return std::int64_t{0};
      }
      Shuttle probe = *current_shuttle_;
      probe.header.dest_class_hint =
          static_cast<node::ShipClass>(cls_index);
      return static_cast<std::int64_t>(
          network_.morphing().MorphForDock(probe).success);
    }
    case Syscall::kQueueDepth:
      return static_cast<std::int64_t>(network_.fabric().QueuedBytesAt(id_));
    case Syscall::kSyscallCount:
      break;
  }
  return Status(InvalidArgument("unknown syscall"));
}

}  // namespace viator::wli
