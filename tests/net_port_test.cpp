#include "net/port.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aqm/fifo.hpp"
#include "net/node.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "trace/sinks.hpp"

namespace elephant::net {
namespace {

using test::make_packet;

/// Records every packet it receives, with arrival time.
class SinkNode : public Node {
 public:
  SinkNode(sim::Scheduler& sched, NodeId id) : Node(id, "sink"), sched_(sched) {}
  void receive(Packet&& p) override {
    arrivals.push_back({sched_.now(), std::move(p)});
  }
  struct Arrival {
    sim::Time t;
    Packet p;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Scheduler& sched_;
};

std::unique_ptr<Port> make_port(sim::Scheduler& sched, double bps, sim::Time delay, Node* to,
               std::size_t buf = 1 << 24) {
  auto p = std::make_unique<Port>(sched, std::make_unique<aqm::FifoQueue>(sched, buf), bps, delay, "test");
  p->connect(to);
  return p;
}

TEST(Port, DeliversAfterSerializationPlusPropagation) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  // 1 Mb/s, 10 ms propagation, 12500-byte packet → 100 ms + 10 ms.
  auto port_ptr = make_port(sched, 1e6, sim::Time::milliseconds(10), &sink);
  Port& port = *port_ptr;
  port.send(make_packet(1, 0, 12500));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].t, sim::Time::milliseconds(110));
}

TEST(Port, BackToBackPacketsSerialize) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e6, sim::Time::zero(), &sink);
  Port& port = *port_ptr;
  port.send(make_packet(1, 0, 12500));  // 100 ms each
  port.send(make_packet(1, 1, 12500));
  port.send(make_packet(1, 2, 12500));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].t, sim::Time::milliseconds(100));
  EXPECT_EQ(sink.arrivals[1].t, sim::Time::milliseconds(200));
  EXPECT_EQ(sink.arrivals[2].t, sim::Time::milliseconds(300));
}

TEST(Port, PreservesOrder) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e9, sim::Time::milliseconds(1), &sink);
  Port& port = *port_ptr;
  for (std::uint64_t i = 0; i < 50; ++i) port.send(make_packet(1, i, 1500));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sink.arrivals[i].p.seq, i);
}

TEST(Port, CountsTransmitted) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e9, sim::Time::zero(), &sink);
  Port& port = *port_ptr;
  port.send(make_packet(1, 0, 1000));
  port.send(make_packet(1, 1, 500));
  sched.run();
  EXPECT_EQ(port.tx_packets(), 2u);
  EXPECT_EQ(port.tx_bytes(), 1500u);
}

TEST(Port, DropsDoNotReachPeer) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e3, sim::Time::zero(), &sink, 2 * 8900);  // tiny buffer
  Port& port = *port_ptr;
  for (std::uint64_t i = 0; i < 10; ++i) port.send(make_packet(1, i));
  sched.run();
  // Transmission is slow (1 kb/s) but everything fits or drops; only
  // non-dropped packets arrive.
  EXPECT_EQ(sink.arrivals.size(), port.tx_packets());
  EXPECT_LT(sink.arrivals.size(), 10u);
  EXPECT_GT(port.qdisc().stats().dropped_overflow, 0u);
}

TEST(Port, IdleThenBusyRestartsCleanly) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e6, sim::Time::zero(), &sink);
  Port& port = *port_ptr;
  port.send(make_packet(1, 0, 12500));
  sched.run();
  // Send another after the line went idle.
  sched.schedule_at(sim::Time::seconds(1), [&] { port.send(make_packet(1, 1, 12500)); });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].t, sim::Time::seconds(1.1));
}

TEST(Port, IdleFifoPortCutsThroughWithEnqueueDequeueAccounting) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  trace::MemorySink records;
  trace::Tracer tracer(records);
  obs::LogLinHistogram sojourn;
  const obs::QueueMetrics metrics{&sojourn};
  auto port_ptr = make_port(sched, 1e6, sim::Time::milliseconds(10), &sink);
  Port& port = *port_ptr;
  port.set_tracer(&tracer);
  port.set_metrics(&metrics);

  // The link is idle and the queue empty: the packet skips the queue.
  sched.run_until(sim::Time::milliseconds(5));
  port.send(make_packet(1, 0, 12500));
  EXPECT_EQ(port.qdisc().packet_length(), 0u);
  sched.run();
  tracer.flush();

  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 5 ms send + 100 ms serialization + 10 ms propagation.
  EXPECT_EQ(sink.arrivals[0].t, sim::Time::milliseconds(115));
  EXPECT_EQ(sink.arrivals[0].p.enqueue_time, sim::Time::milliseconds(5));
  EXPECT_EQ(port.tx_packets(), 1u);

  // The same accounting as an explicit enqueue() + dequeue() pair.
  sim::Scheduler ref_sched;
  aqm::FifoQueue ref(ref_sched, 1 << 24);
  ASSERT_TRUE(ref.enqueue(make_packet(1, 0, 12500)));
  ASSERT_TRUE(ref.dequeue().has_value());
  const aqm::QueueStats& got = port.qdisc().stats();
  const aqm::QueueStats& want = ref.stats();
  EXPECT_EQ(got.enqueued, want.enqueued);
  EXPECT_EQ(got.dequeued, want.dequeued);
  EXPECT_EQ(got.dropped_overflow, want.dropped_overflow);
  EXPECT_EQ(got.dropped_early, want.dropped_early);
  EXPECT_EQ(got.ecn_marked, want.ecn_marked);
  EXPECT_EQ(got.bytes_enqueued, want.bytes_enqueued);
  EXPECT_EQ(got.bytes_dropped, want.bytes_dropped);
  EXPECT_EQ(port.qdisc().byte_length(), 0u);

  ASSERT_EQ(sojourn.count(), 1u);
  EXPECT_EQ(sojourn.max(), 0.0);

  int enqueue_records = 0;
  for (const trace::TraceRecord& r : records.records()) {
    if (r.type != trace::RecordType::kAqmEnqueue) continue;
    ++enqueue_records;
    EXPECT_EQ(r.t, sim::Time::milliseconds(5));
    EXPECT_EQ(r.v0, 12500.0);  // byte length with the packet counted, as enqueue()
    EXPECT_EQ(r.v1, 0.0);      // packet length before it is stored, as enqueue()
  }
  EXPECT_EQ(enqueue_records, 1);
}

TEST(Port, IdlePortDropsPacketLargerThanTheWholeLimit) {
  sim::Scheduler sched;
  SinkNode sink(sched, 2);
  auto port_ptr = make_port(sched, 1e6, sim::Time::zero(), &sink, /*buf=*/10000);
  Port& port = *port_ptr;
  port.send(make_packet(1, 0, 12500));
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(port.tx_packets(), 0u);
  const aqm::QueueStats& st = port.qdisc().stats();
  EXPECT_EQ(st.dropped_overflow, 1u);
  EXPECT_EQ(st.bytes_dropped, 12500u);
  EXPECT_EQ(st.enqueued, 0u);
  EXPECT_EQ(st.dequeued, 0u);
}

TEST(Router, ForwardsByDestination) {
  sim::Scheduler sched;
  SinkNode a(sched, 10);
  SinkNode b(sched, 11);
  Router router(3, "r");
  auto to_a_ptr = make_port(sched, 1e9, sim::Time::zero(), &a);
  Port& to_a = *to_a_ptr;
  auto to_b_ptr = make_port(sched, 1e9, sim::Time::zero(), &b);
  Port& to_b = *to_b_ptr;
  router.set_route(10, &to_a);
  router.set_route(11, &to_b);

  Packet p1 = make_packet(1, 0);
  p1.dst = 10;
  Packet p2 = make_packet(2, 0);
  p2.dst = 11;
  router.receive(std::move(p1));
  router.receive(std::move(p2));
  sched.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(router.forwarded(), 2u);
}

TEST(Router, DropsUnroutable) {
  Router router(3, "r");
  Packet p = make_packet(1, 0);
  p.dst = 99;
  router.receive(std::move(p));
  EXPECT_EQ(router.no_route_drops(), 1u);
}

TEST(Router, DropsDestinationBeyondItsTable) {
  sim::Scheduler sched;
  SinkNode a(sched, 10);
  Router router(3, "r");
  auto to_a = make_port(sched, 1e9, sim::Time::zero(), &a);
  router.set_route(10, to_a.get());
  Packet p = make_packet(1, 0);
  p.dst = 1000;
  router.receive(std::move(p));
  Packet q = make_packet(1, 1);
  q.dst = 4;  // inside the table, but no route set
  router.receive(std::move(q));
  sched.run();
  EXPECT_EQ(router.no_route_drops(), 2u);
  EXPECT_EQ(router.forwarded(), 0u);
  EXPECT_TRUE(a.arrivals.empty());
}

TEST(Host, DemuxesByFlow) {
  sim::Scheduler sched;
  Host host(5, "h");
  struct Counter : PacketHandler {
    int count = 0;
    void on_packet(Packet&&) override { ++count; }
  };
  Counter f1, f2;
  host.register_endpoint(1, &f1);
  host.register_endpoint(2, &f2);
  host.receive(make_packet(1, 0));
  host.receive(make_packet(2, 0));
  host.receive(make_packet(2, 1));
  EXPECT_EQ(f1.count, 1);
  EXPECT_EQ(f2.count, 2);
  // Unknown flow is counted, not crashed on.
  host.receive(make_packet(9, 0));
  EXPECT_EQ(host.no_endpoint_drops(), 1u);
}

}  // namespace
}  // namespace elephant::net
