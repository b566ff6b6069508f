#include "net/node.hpp"

#include <utility>

#include "net/port.hpp"

namespace elephant::net {

void Router::receive(Packet&& p) {
  Port* out = p.dst < routes_.size() ? routes_[p.dst] : nullptr;
  if (out == nullptr) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  out->send(std::move(p));
}

void Host::transmit(Packet&& p) {
  if (nic_ != nullptr) nic_->send(std::move(p));
}

void Host::receive(Packet&& p) {
  PacketHandler* h = p.flow < endpoints_.size() ? endpoints_[p.flow] : nullptr;
  if (h == nullptr) {
    ++no_endpoint_drops_;
    return;
  }
  ++delivered_;
  h->on_packet(std::move(p));
}

}  // namespace elephant::net
