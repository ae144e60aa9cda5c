#include "net/sim_network.h"

#include <algorithm>

#include "common/hash.h"
#include "wire/protocol.h"

namespace gisql {

void SimNetwork::SetLink(const std::string& a, const std::string& b,
                         LinkSpec spec) {
  links_[LinkKey(a, b)] = spec;
}

const LinkSpec& SimNetwork::GetLink(const std::string& a,
                                    const std::string& b) const {
  auto it = links_.find(LinkKey(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

Status SimNetwork::RegisterHost(const std::string& name,
                                RpcHandler* handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("null handler for host '", name, "'");
  }
  auto [it, inserted] = hosts_.emplace(name, HostEntry{handler, false});
  if (!inserted) {
    return Status::AlreadyExists("host '", name, "' already registered");
  }
  return Status::OK();
}

Status SimNetwork::UnregisterHost(const std::string& name) {
  if (hosts_.erase(name) == 0) {
    return Status::NotFound("host '", name, "' not registered");
  }
  return Status::OK();
}

void SimNetwork::SetHostDown(const std::string& name, bool down) {
  auto it = hosts_.find(name);
  if (it != hosts_.end()) it->second.down = down;
}

void SimNetwork::InstallFaults(uint64_t seed, FaultProfile profile) {
  faults_ = std::make_unique<FaultSchedule>(seed, profile);
}

uint64_t SimNetwork::NextMessageIndex(const std::string& from,
                                      const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  return msg_index_[{from, to}]++;
}

namespace {

/// Flips three pseudo-random bits of `frame`, positioned by `entropy`.
/// Three flips defeat any accidental CRC-32 self-cancellation a single
/// unlucky flip pattern could produce with a different checksum.
void CorruptFrame(std::vector<uint8_t>* frame, uint64_t entropy) {
  if (frame->empty()) return;
  uint64_t bits = HashInt(entropy);
  const uint64_t total_bits = frame->size() * 8;
  for (int i = 0; i < 3; ++i) {
    const uint64_t pos = bits % total_bits;
    (*frame)[pos / 8] ^= static_cast<uint8_t>(1u << (pos % 8));
    bits = HashInt(bits);
  }
}

}  // namespace

RpcAttempt SimNetwork::CallAttempt(const std::string& from,
                                   const std::string& to, uint8_t opcode,
                                   const std::vector<uint8_t>& request,
                                   double detection_window_ms,
                                   const TraceSink& sink) {
  RpcAttempt a =
      CallAttemptImpl(from, to, opcode, request, detection_window_ms, sink);
  // Latency/size tails: every attempt (timeouts included — callers
  // really wait them out) lands in the histograms.
  metrics_.Observe("net.rpc_ms", a.elapsed_ms);
  if (a.bytes_received > 0) {
    metrics_.Observe("net.response_bytes",
                     static_cast<double>(a.bytes_received));
  }
  if (observer_ != nullptr) observer_->OnRpcAttempt(from, to, opcode, a);
  return a;
}

RpcAttempt SimNetwork::CallAttemptImpl(const std::string& from,
                                       const std::string& to, uint8_t opcode,
                                       const std::vector<uint8_t>& request,
                                       double detection_window_ms,
                                       const TraceSink& sink) {
  RpcAttempt a;
  const LinkSpec& link = GetLink(from, to);
  const double timeout_ms = 2.0 * link.latency_ms + detection_window_ms;

  // Phase spans hang off the caller's span; `t` walks the simulated
  // clock across send → handle → receive.
  double t = sink.start_ms;
  auto phase = [&](const char* name, double dur_ms, int64_t bytes_out,
                   int64_t bytes_in, const std::string& note) {
    if (sink.trace != nullptr) {
      const uint64_t id = sink.trace->Begin(name, "net", sink.parent, t);
      sink.trace->SetHost(id, to);
      if (bytes_out != 0 || bytes_in != 0) {
        sink.trace->AddIo(id, bytes_out, bytes_in, 0, 0, 0);
      }
      if (!note.empty()) sink.trace->SetNote(id, note);
      sink.trace->End(id, t + dur_ms);
    }
    t += dur_ms;
  };

  auto it = hosts_.find(to);
  if (it == hosts_.end()) {
    // Configuration error, not a simulated network event: nothing was
    // sent, but a retry loop still burns the detection window learning
    // nobody answers at that address.
    a.status = Status::NetworkError("host '", to, "' is not registered");
    a.elapsed_ms = timeout_ms;
    phase("timeout", timeout_ms, 0, 0, "host not registered");
    return a;
  }

  FaultSchedule::Decision fault;
  if (faults_ != nullptr) {
    fault = faults_->Next(from, to, opcode, NextMessageIndex(from, to));
    if (fault.kind == FaultKind::kDuplicate &&
        opcode == static_cast<uint8_t>(wire::Opcode::kAdminSql)) {
      // The admin channel is not idempotent (see fault_schedule.h);
      // duplication is downgraded to a clean delivery.
      fault.kind = FaultKind::kNone;
    }
    if (fault.kind != FaultKind::kNone) {
      metrics_.Add(std::string("net.faults.") + FaultKindName(fault.kind), 1);
    }
    a.fault = fault.kind;
  }

  if (it->second.down || fault.kind == FaultKind::kOutage) {
    // Connection refused / partitioned link: nothing crosses the wire;
    // the caller burns the detection timeout.
    a.status = Status::NetworkError("host '", to, "' is unreachable");
    a.elapsed_ms = timeout_ms;
    metrics_.Add("net.sim_us", static_cast<int64_t>(a.elapsed_ms * 1e3));
    phase("timeout", timeout_ms, 0, 0,
          fault.kind == FaultKind::kOutage ? "outage" : "host down");
    return a;
  }

  const double spike = fault.kind == FaultKind::kSpike ? fault.spike_factor
                                                       : 1.0;
  a.bytes_sent = static_cast<int64_t>(request.size()) + 16;  // header

  if (fault.kind == FaultKind::kDrop) {
    // The request vanishes in transit: bytes left the sender, the
    // handler never ran, and the caller waits out the full window.
    metrics_.Add("net.messages", 1);
    metrics_.Add("net.bytes_sent", a.bytes_sent);
    a.status = Status::NetworkError("message to host '", to,
                                    "' lost in transit");
    a.elapsed_ms = timeout_ms;
    metrics_.Add("net.sim_us", static_cast<int64_t>(a.elapsed_ms * 1e3));
    metrics_.Set("net.last_elapsed_ms", a.elapsed_ms);
    phase("send", timeout_ms, a.bytes_sent, 0, "lost in transit");
    return a;
  }

  const double send_ms = spike * link.TransferTimeMs(a.bytes_sent);
  double elapsed = send_ms;
  phase("send", send_ms, a.bytes_sent, 0, "");

  double processing_ms = 0.0;
  Result<std::vector<uint8_t>> response =
      it->second.handler->Handle(opcode, request, &processing_ms);
  elapsed += processing_ms;
  phase("handle", processing_ms, 0, 0, "");

  metrics_.Add("net.messages", 1);
  metrics_.Add("net.bytes_sent", a.bytes_sent);

  if (fault.kind == FaultKind::kDuplicate) {
    // At-least-once delivery: the handler runs again on the duplicate
    // and its (ignored) response still crosses the wire. The caller's
    // latency is set by the first response alone.
    double dup_processing_ms = 0.0;
    Result<std::vector<uint8_t>> dup =
        it->second.handler->Handle(opcode, request, &dup_processing_ms);
    metrics_.Add("net.messages", 1);
    metrics_.Add("net.bytes_sent", a.bytes_sent);
    const int64_t dup_bytes =
        dup.ok() ? static_cast<int64_t>(dup->size()) +
                       static_cast<int64_t>(wire::kFrameHeaderBytes) + 16
                 : static_cast<int64_t>(dup.status().message().size()) + 24;
    metrics_.Add("net.bytes_received", dup_bytes);
  }

  if (!response.ok()) {
    // Error frames still cross the wire.
    const int64_t err_bytes =
        static_cast<int64_t>(response.status().message().size()) + 24;
    const double err_ms = spike * link.TransferTimeMs(err_bytes);
    elapsed += err_ms;
    metrics_.Add("net.bytes_received", err_bytes);
    a.bytes_received = err_bytes;
    a.status = response.status();
    a.elapsed_ms = elapsed;
    metrics_.Add("net.sim_us", static_cast<int64_t>(elapsed * 1e3));
    metrics_.Set("net.last_elapsed_ms", elapsed);
    phase("recv", err_ms, 0, err_bytes, "application error");
    return a;
  }

  // The response travels inside a checksummed frame so in-flight damage
  // is detected at the receiver instead of consumed.
  std::vector<uint8_t> frame = wire::SealFrame(std::move(*response));

  if (fault.kind == FaultKind::kCrash) {
    // The source dies mid-response: the connection resets after a
    // deterministic prefix and the caller waits out the window before
    // declaring it dead. The schedule has opened an outage window for
    // the restart.
    const size_t cut = frame.empty() ? 0 : fault.entropy % frame.size();
    const int64_t partial = static_cast<int64_t>(cut) + 16;
    const double crash_ms =
        spike * link.TransferTimeMs(partial) + detection_window_ms;
    elapsed += crash_ms;
    phase("recv", crash_ms, 0, partial, "crashed mid-response");
    metrics_.Add("net.bytes_received", partial);
    a.bytes_received = partial;
    a.status = Status::NetworkError("host '", to,
                                    "' crashed mid-response after ", cut,
                                    " of ", frame.size(), " frame bytes");
    a.elapsed_ms = elapsed;
    metrics_.Add("net.sim_us", static_cast<int64_t>(elapsed * 1e3));
    metrics_.Set("net.last_elapsed_ms", elapsed);
    return a;
  }

  if (fault.kind == FaultKind::kCorrupt) {
    CorruptFrame(&frame, fault.entropy);
  }

  a.bytes_received = static_cast<int64_t>(frame.size()) + 16;
  const double recv_ms = spike * link.TransferTimeMs(a.bytes_received);
  elapsed += recv_ms;
  phase("recv", recv_ms, 0, a.bytes_received,
        fault.kind == FaultKind::kCorrupt ? "corrupt frame" : "");
  metrics_.Add("net.bytes_received", a.bytes_received);
  metrics_.Add("net.bytes." + to, a.bytes_received);
  metrics_.Add("net.sim_us", static_cast<int64_t>(elapsed * 1e3));
  metrics_.Set("net.last_elapsed_ms", elapsed);
  a.elapsed_ms = elapsed;

  Result<std::vector<uint8_t>> opened = wire::OpenFrame(std::move(frame));
  if (!opened.ok()) {
    a.status = opened.status();
    return a;
  }
  a.payload = std::move(*opened);
  a.status = Status::OK();
  return a;
}

Result<RpcResult> SimNetwork::Call(const std::string& from,
                                   const std::string& to, uint8_t opcode,
                                   const std::vector<uint8_t>& request) {
  RpcAttempt attempt = CallAttempt(from, to, opcode, request);
  if (!attempt.ok()) return attempt.status;
  RpcResult result;
  result.payload = std::move(attempt.payload);
  result.elapsed_ms = attempt.elapsed_ms;
  result.bytes_sent = attempt.bytes_sent;
  result.bytes_received = attempt.bytes_received;
  return result;
}

std::vector<std::string> SimNetwork::HostNames() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& [name, entry] : hosts_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace gisql
