// Discrete-event simulator and network model tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/inline_action.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avmon::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.runUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, TiesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(42, [&order, i] { order.push_back(i); });
  }
  sim.runUntil(42);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.at(50, [&] {
    sim.at(10, [&] { observed = sim.now(); });  // "in the past"
  });
  sim.runUntil(100);
  EXPECT_EQ(observed, 50);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(21, [&] { ++fired; });
  sim.runUntil(20);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  sim.at(1, [&] {
    ++depth;
    sim.after(1, [&] {
      ++depth;
      sim.after(1, [&] { ++depth; });
    });
  });
  sim.runUntil(10);
  EXPECT_EQ(depth, 3);
}

TEST(SimulatorTest, EveryRepeatsUntilCancelled) {
  Simulator sim;
  int count = 0;
  sim.every(10, 10, [&] {
    ++count;
    return count < 5;
  });
  sim.runUntil(1000);
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, EveryHonorsPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.every(5, 7, [&] {
    fires.push_back(sim.now());
    return fires.size() < 4;
  });
  sim.runUntil(100);
  EXPECT_EQ(fires, (std::vector<SimTime>{5, 12, 19, 26}));
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

// ---- calendar-queue internals (two-tier ordering) ----

TEST(SimulatorTest, SameInstantFifoSpansBothTiers) {
  // Two events land at T while T is beyond the ring window (overflow
  // tier); after the window slides over T they are promoted, and a third
  // event is then scheduled at T directly into its bucket. All three must
  // run in original scheduling order.
  Simulator sim;
  constexpr SimTime kT = 10'000;  // > kBucketCount from time 0
  static_assert(kT >= static_cast<SimTime>(Simulator::kBucketCount));
  std::vector<int> order;
  sim.at(kT, [&] { order.push_back(1); });
  sim.at(kT, [&] { order.push_back(2); });
  EXPECT_EQ(sim.overflowEvents(), 2u);

  // Slide the window: an executed event at 3000 puts kT inside
  // [3000, 3000 + kBucketCount) and triggers promotion.
  sim.at(3'000, [&] { order.push_back(0); });
  sim.runUntil(3'000);
  EXPECT_EQ(sim.overflowEvents(), 0u);

  sim.at(kT, [&] { order.push_back(3); });  // direct bucket insert
  sim.runUntil(kT);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, FarFutureEventsPromoteAndFireOnTime) {
  Simulator sim;
  SimTime firedAt = -1;
  sim.at(2 * kHour, [&] { firedAt = sim.now(); });
  EXPECT_EQ(sim.overflowEvents(), 1u);
  sim.runUntil(3 * kHour);
  EXPECT_EQ(firedAt, 2 * kHour);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, GlobalOrderMatchesStableSortAcrossTiers) {
  // Randomized workload spanning both tiers: execution order must equal a
  // stable sort by time (stability = scheduling order for ties).
  Simulator sim;
  Rng rng(2024);
  constexpr int kEvents = 2'000;
  std::vector<SimTime> when(kEvents);
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    // Mix of bucket-window times and far-future overflow times, with
    // plenty of exact collisions.
    when[i] = static_cast<SimTime>(rng.below(40'000));
    sim.at(when[i], [&fired, i] { fired.push_back(i); });
  }
  sim.runUntil(50'000);

  std::vector<int> expected(kEvents);
  for (int i = 0; i < kEvents; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return when[a] < when[b]; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.executedEvents(), static_cast<std::uint64_t>(kEvents));
}

// A capture that counts its own destruction once: a move hands the count
// on to the copy it moved into, so each scheduled closure adds exactly one
// destruction, whether it fired or was still parked when its simulator
// went.
class DestructionCounter {
 public:
  explicit DestructionCounter(int* destroyed) : destroyed_(destroyed) {}
  DestructionCounter(DestructionCounter&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  DestructionCounter(const DestructionCounter&) = delete;
  DestructionCounter& operator=(const DestructionCounter&) = delete;
  DestructionCounter& operator=(DestructionCounter&&) = delete;
  ~DestructionCounter() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

TEST(SimulatorTest, OverflowActionsAreDestroyedExactlyOnce) {
  // Three pages of far-future actions over the next hour, half of them
  // too large to store inline; the first half hour fires, the rest is
  // still parked when the simulator is destroyed.
  constexpr int kEvents = 3 * static_cast<int>(Simulator::kOverflowPageSlots);
  int fired = 0;
  int destroyed = 0;
  int due = 0;
  {
    Simulator sim;
    for (int i = 0; i < kEvents; ++i) {
      const SimTime when = (1 + i % 60) * kMinute;
      if (when <= 30 * kMinute) ++due;
      if (i % 2 == 0) {
        sim.at(when, [c = DestructionCounter(&destroyed), &fired] {
          (void)c;
          ++fired;
        });
      } else {
        auto large = [c = DestructionCounter(&destroyed),
                      pad = std::array<char, 200>{}, &fired] {
          (void)c;
          fired += 1 + pad[0];
        };
        static_assert(!InlineAction::storedInline<decltype(large)>());
        sim.at(when, std::move(large));
      }
    }
    EXPECT_EQ(sim.overflowEvents(), static_cast<std::size_t>(kEvents));
    sim.runUntil(30 * kMinute);
    EXPECT_EQ(fired, due);
    EXPECT_EQ(destroyed, fired);  // every fired action is gone, no other
    EXPECT_EQ(sim.pendingEvents(), static_cast<std::size_t>(kEvents - due));
  }
  EXPECT_EQ(destroyed, kEvents);
}

TEST(SimulatorTest, OverflowOrderHoldsAcrossPagesAndRecycledSlots) {
  // 5 000 events parked on four equal far-future instants (several
  // overflow pages), scheduled between 5 000 ring events. Fired events
  // reschedule onto the next instant a full ring span ahead, so they land
  // in the overflow tier behind the events already parked there, in the
  // slots that promotions freed; two `every` chains with a period beyond
  // the ring do the same. Execution order must equal a stable sort of all
  // schedulings by time.
  constexpr std::array<SimTime, 6> kInstants{20'000, 30'000, 40'000,
                                             50'000, 60'000, 70'000};
  constexpr auto kSpan = static_cast<SimTime>(Simulator::kBucketCount);
  Simulator sim;
  Rng rng(77);
  std::vector<SimTime> when;  // by scheduling order
  std::vector<std::size_t> fired;
  std::size_t overflowScheduled = 0;
  std::size_t peakOverflow = 0;
  const auto note = [&](SimTime t) {
    if (t - sim.now() >= kSpan) ++overflowScheduled;
    when.push_back(t);
    return when.size() - 1;
  };
  std::function<void(SimTime)> schedule = [&](SimTime t) {
    const std::size_t id = note(t);
    sim.at(t, [&, id] {
      fired.push_back(id);
      const auto next = std::lower_bound(kInstants.begin(), kInstants.end(),
                                         sim.now() + kSpan);
      if (next != kInstants.end() && rng.chance(0.7)) schedule(*next);
    });
    peakOverflow = std::max(peakOverflow, sim.overflowEvents());
  };
  for (int i = 0; i < 5'000; ++i) {
    schedule(static_cast<SimTime>(rng.below(8'000)));
    schedule(kInstants[rng.below(4)]);
  }
  for (int chain = 0; chain < 2; ++chain) {
    // `every` schedules its next firing right after its callback returns
    // true, so noting the firing inside the callback keeps `when` in
    // scheduling order.
    auto current = std::make_shared<std::size_t>(note(100 + chain));
    sim.every(100 + chain, kSpan + 808, [&, current] {
      fired.push_back(*current);
      const SimTime next = sim.now() + kSpan + 808;
      if (next > 75'000) return false;
      *current = note(next);
      return true;
    });
  }
  sim.runUntil(100'000);

  std::vector<std::size_t> expected(when.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(
      expected.begin(), expected.end(),
      [&](std::size_t a, std::size_t b) { return when[a] < when[b]; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_GE(peakOverflow, 5'000u);
  static_assert(5'000u > 2 * Simulator::kOverflowPageSlots);
  // More overflow schedulings than the pages that the peak needed can
  // hold: promoted events' slots were taken again.
  const std::size_t pageSlots = Simulator::kOverflowPageSlots;
  EXPECT_GT(overflowScheduled,
            (peakOverflow + pageSlots - 1) / pageSlots * pageSlots);
}

TEST(SimulatorTest, EveryCancellationLeavesNoPendingEvent) {
  Simulator sim;
  int count = 0;
  sim.every(10, 10, [&] {
    ++count;
    return count < 3;
  });
  sim.runUntil(1'000);
  EXPECT_EQ(count, 3);
  // The cancelled periodic chain reschedules nothing further.
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, PendingPlusExecutedEqualsScheduled) {
  Simulator sim;
  std::uint64_t scheduled = 0;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const SimTime t = static_cast<SimTime>(rng.below(20'000));
    sim.at(t, [&sim, &scheduled, &rng] {
      // Half the events spawn a follow-up, some into the overflow tier.
      if (rng.chance(0.5)) {
        sim.after(static_cast<SimDuration>(rng.below(30'000)), [] {});
        ++scheduled;
      }
    });
    ++scheduled;
  }
  while (sim.pendingEvents() > 0) {
    EXPECT_EQ(sim.executedEvents() + sim.pendingEvents(), scheduled);
    sim.step();
  }
  EXPECT_EQ(sim.executedEvents(), scheduled);
}

TEST(SimulatorTest, PastSchedulingAfterBoundedRunStillFires) {
  // After runUntil(until) the clock sits at `until`; scheduling at or
  // before it must clamp to now and fire on the next run.
  Simulator sim;
  sim.runUntil(5'000);
  EXPECT_EQ(sim.now(), 5'000);
  SimTime observed = -1;
  sim.at(1'000, [&] { observed = sim.now(); });  // "in the past"
  sim.runUntil(5'000);
  EXPECT_EQ(observed, 5'000);
}

// ---- InlineAction ----

TEST(InlineActionTest, SmallCapturesStayInline) {
  struct Small {
    void* a;
    std::uint64_t b[4];
    void operator()() {}
  };
  static_assert(InlineAction::kInlineCapacity >= 48);
  EXPECT_TRUE(InlineAction::storedInline<Small>());
}

TEST(InlineActionTest, LargeCapturesFallBackToHeapAndStillRun) {
  std::array<char, 200> big{};
  big[0] = 42;
  int result = 0;
  auto lambda = [big, &result] { result = big[0]; };
  EXPECT_FALSE(InlineAction::storedInline<decltype(lambda)>());
  InlineAction action(std::move(lambda));
  ASSERT_TRUE(static_cast<bool>(action));
  action();
  EXPECT_EQ(result, 42);
}

TEST(InlineActionTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineAction a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);  // original + stored copy
  InlineAction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2);   // no duplicate made by the move
  b();
  EXPECT_EQ(*counter, 1);
  b.reset();
  EXPECT_FALSE(static_cast<bool>(b));
  EXPECT_EQ(counter.use_count(), 1);  // stored copy destroyed
}

TEST(InlineActionTest, MoveAssignReplacesExisting) {
  int first = 0, second = 0;
  InlineAction a([&first] { ++first; });
  InlineAction b([&second] { ++second; });
  a = std::move(b);
  a();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// ---- network ----

class RecordingEndpoint final : public Endpoint {
 public:
  void onMessage(const NodeId& from, const Message& message) override {
    froms.push_back(from);
    if (const auto* text = std::get_if<TextMessage>(&message))
      messages.push_back(text->text);
  }
  std::vector<NodeId> froms;
  std::vector<std::string> messages;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, NetworkConfig{}, Rng(5)) {}

  Simulator sim_;
  Network net_;
  RecordingEndpoint a_, b_;
  NodeId idA_{NodeId::fromIndex(1)};
  NodeId idB_{NodeId::fromIndex(2)};
};

TEST_F(NetworkTest, DeliversToUpNode) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);
  net_.send(idA_, idB_, TextMessage{"hello", 10});
  sim_.runUntil(kSecond);
  ASSERT_EQ(b_.messages.size(), 1u);
  EXPECT_EQ(b_.messages[0], "hello");
  EXPECT_EQ(b_.froms[0], idA_);
  EXPECT_EQ(net_.delivered(), 1u);
}

TEST_F(NetworkTest, DropsToDownNode) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);  // B stays down
  net_.send(idA_, idB_, TextMessage{"hello", 10});
  sim_.runUntil(kSecond);
  EXPECT_TRUE(b_.messages.empty());
  EXPECT_EQ(net_.lost(), 1u);
}

TEST_F(NetworkTest, DropsIfTargetGoesDownBeforeDelivery) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);
  net_.send(idA_, idB_, TextMessage{"hello", 10});
  net_.setUp(idB_, false);  // goes down before the latency elapses
  sim_.runUntil(kSecond);
  EXPECT_TRUE(b_.messages.empty());
}

TEST_F(NetworkTest, ChargesSenderBytesImmediately) {
  net_.attach(idA_, a_);
  net_.setUp(idA_, true);
  net_.send(idA_, idB_, TextMessage{"x", 42});
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 42u);
  EXPECT_EQ(net_.traffic(idA_).messagesSent, 1u);
}

TEST_F(NetworkTest, RpcReachesUpNode) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);
  const auto response = net_.call(idA_, idB_, CvFetchRequest{8, 16});
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(std::holds_alternative<CvFetchResponse>(*response));
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 8u);
  EXPECT_EQ(net_.traffic(idB_).bytesSent, 16u);  // response charged to target
}

TEST_F(NetworkTest, RpcTimesOutOnDownNode) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  EXPECT_FALSE(net_.call(idA_, idB_, CvFetchRequest{8, 16}).has_value());
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 8u);  // request wasted
  EXPECT_EQ(net_.traffic(idB_).bytesSent, 0u);
}

TEST_F(NetworkTest, RpcTimesOutOnDetachedNode) {
  net_.attach(idA_, a_);
  net_.setUp(idA_, true);
  EXPECT_FALSE(net_.call(idA_, idB_, CvFetchRequest{8, 16}).has_value());
}

TEST_F(NetworkTest, ExchangeReturnsConcreteResponseType) {
  // An endpoint that actually serves CV fetches; exchange() hands the
  // caller the typed response, no variant handling at the call site.
  class ViewServer final : public Endpoint {
   public:
    void onMessage(const NodeId&, const Message&) override {}
    RpcResponse onRpc(const NodeId&, const RpcRequest& request) override {
      if (std::holds_alternative<CvFetchRequest>(request)) {
        return CvFetchResponse{{NodeId::fromIndex(7), NodeId::fromIndex(9)}};
      }
      return Endpoint::onRpc(NodeId{}, request);
    }
  } server;
  net_.attach(idA_, a_);
  net_.attach(idB_, server);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);

  const auto fetch = net_.exchange(idA_, idB_, CvFetchRequest{8, 16});
  ASSERT_TRUE(fetch.has_value());
  ASSERT_EQ(fetch->view.size(), 2u);
  EXPECT_EQ(fetch->view[0], NodeId::fromIndex(7));

  // The default Endpoint::onRpc acks with an *empty* response of the
  // matching type, so exchange() stays total against plain endpoints.
  const auto probe = net_.exchange(idB_, idA_, CvFetchRequest{8, 16});
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->view.empty());
  EXPECT_TRUE(net_.exchange(idB_, idA_, PingRequest{8}).has_value());
}

TEST_F(NetworkTest, MessageWireSizeLivesWithTheType) {
  EXPECT_EQ(wireBytes(Message(JoinMessage{idA_, 3})), JoinMessage::kBytes);
  EXPECT_EQ(wireBytes(Message(NotifyMessage{idA_, idB_})),
            NotifyMessage::kBytes);
  EXPECT_EQ(wireBytes(Message(ForceAddMessage{idA_})), ForceAddMessage::kBytes);
  EXPECT_EQ(wireBytes(Message(TextMessage{"x", 42})), 42u);
  EXPECT_EQ(requestWireBytes(RpcRequest(CvFetchRequest{8, 136})), 8u);
  EXPECT_EQ(responseWireBytes(RpcRequest(CvFetchRequest{8, 136})), 136u);
  EXPECT_EQ(requestWireBytes(RpcRequest(SwapRequest{{}, 8, 5})), 40u);
}

TEST_F(NetworkTest, TrafficCountersSurviveDetachAndReattach) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);
  net_.send(idA_, idB_, TextMessage{"one", 10});
  net_.detach(idA_);
  // Counters belong to the node id, not the endpoint object.
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 10u);
  EXPECT_EQ(net_.traffic(idA_).messagesSent, 1u);

  RecordingEndpoint reborn;
  net_.attach(idA_, reborn);
  net_.setUp(idA_, true);
  net_.send(idA_, idB_, TextMessage{"two", 5});
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 15u);
  EXPECT_EQ(net_.traffic(idA_).messagesSent, 2u);
  // And the reattached endpoint receives traffic again.
  net_.send(idB_, idA_, TextMessage{"back", 4});
  sim_.runUntil(kSecond);
  ASSERT_EQ(reborn.messages.size(), 1u);
  EXPECT_EQ(reborn.messages[0], "back");
}

TEST_F(NetworkTest, DeferredRpcDeliversAfterBothLegs) {
  NetworkConfig cfg;
  cfg.minLatency = 10;
  cfg.maxLatency = 20;
  Network net(sim_, cfg, Rng(11));
  net.attach(idA_, a_);
  net.attach(idB_, b_);
  net.setUp(idA_, true);
  net.setUp(idB_, true);

  SimTime completedAt = -1;
  bool gotResponse = false;
  net.exchangeAsync(idA_, idB_, PingRequest{8}, [&](auto r) {
    gotResponse = r.has_value();
    completedAt = sim_.now();
  });
  EXPECT_EQ(completedAt, -1);  // nothing fires synchronously
  // Request charged up front; response charged when the target serves it.
  EXPECT_EQ(net.traffic(idA_).bytesSent, 8u);
  sim_.runUntil(kSecond);
  EXPECT_TRUE(gotResponse);
  EXPECT_GE(completedAt, 2 * 10);  // two legs, each >= minLatency
  EXPECT_LE(completedAt, 2 * 20);  // and <= maxLatency
  EXPECT_EQ(net.traffic(idB_).bytesSent, 8u);
}

TEST_F(NetworkTest, DeferredRpcLateResponseBecomesTimeout) {
  // A round trip that outlives rpcTimeout is a timeout to the caller even
  // though the target served it (and spent its response bytes).
  NetworkConfig cfg;
  cfg.minLatency = 150;
  cfg.maxLatency = 150;
  cfg.rpcTimeout = 200;
  Network net(sim_, cfg, Rng(13));
  net.attach(idA_, a_);
  net.attach(idB_, b_);
  net.setUp(idA_, true);
  net.setUp(idB_, true);

  SimTime completedAt = -1;
  bool gotResponse = true;
  net.exchangeAsync(idA_, idB_, PingRequest{8}, [&](auto r) {
    gotResponse = r.has_value();
    completedAt = sim_.now();
  });
  sim_.runUntil(kSecond);
  EXPECT_FALSE(gotResponse);
  EXPECT_EQ(completedAt, 200);  // exactly the caller's deadline
  EXPECT_EQ(net.traffic(idB_).bytesSent, 8u);  // response leg was produced
}

TEST_F(NetworkTest, DeferredRpcTimesOutOnDownTarget) {
  NetworkConfig cfg;
  Network net(sim_, cfg, Rng(12));
  net.attach(idA_, a_);
  net.attach(idB_, b_);
  net.setUp(idA_, true);  // B stays down

  SimTime completedAt = -1;
  bool gotResponse = true;
  net.exchangeAsync(idA_, idB_, CvFetchRequest{8, 16}, [&](auto r) {
    gotResponse = r.has_value();
    completedAt = sim_.now();
  });
  sim_.runUntil(kMinute);
  EXPECT_FALSE(gotResponse);
  // The caller waits out the timeout (measured from when the request
  // left, not from when its loss was discovered); only the request leg
  // is charged.
  EXPECT_EQ(completedAt, cfg.rpcTimeout);
  EXPECT_EQ(net.traffic(idA_).bytesSent, 8u);
  EXPECT_EQ(net.traffic(idB_).bytesSent, 0u);
}

TEST_F(NetworkTest, DetachDropsFutureDelivery) {
  net_.attach(idA_, a_);
  net_.attach(idB_, b_);
  net_.setUp(idA_, true);
  net_.setUp(idB_, true);
  net_.send(idA_, idB_, TextMessage{"bye", 4});
  net_.detach(idB_);
  sim_.runUntil(kSecond);
  EXPECT_TRUE(b_.messages.empty());
}

TEST_F(NetworkTest, ResetTrafficZeroesCounters) {
  net_.attach(idA_, a_);
  net_.setUp(idA_, true);
  net_.send(idA_, idB_, TextMessage{"x", 42});
  net_.resetTraffic();
  EXPECT_EQ(net_.traffic(idA_).bytesSent, 0u);
  EXPECT_EQ(net_.traffic(idA_).messagesSent, 0u);
}

TEST_F(NetworkTest, LatencyWithinConfiguredBounds) {
  NetworkConfig cfg;
  cfg.minLatency = 10;
  cfg.maxLatency = 20;
  Network net(sim_, cfg, Rng(6));
  net.attach(idA_, a_);
  net.attach(idB_, b_);
  net.setUp(idA_, true);
  net.setUp(idB_, true);

  std::vector<SimTime> deliveries;
  for (int i = 0; i < 50; ++i) {
    sim_.at(i * 100, [&, i] {
      net.send(idA_, idB_, TextMessage{"m", 1});
    });
  }
  // Record delivery times via a probe endpoint.
  class Probe final : public Endpoint {
   public:
    explicit Probe(Simulator& s, std::vector<SimTime>& v) : sim(s), out(v) {}
    void onMessage(const NodeId&, const Message&) override {
      out.push_back(sim.now());
    }
    Simulator& sim;
    std::vector<SimTime>& out;
  } probe(sim_, deliveries);
  net.attach(idB_, probe);
  net.setUp(idB_, true);

  sim_.runUntil(100 * 100);
  ASSERT_EQ(deliveries.size(), 50u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    const SimTime latency = deliveries[i] - static_cast<SimTime>(i) * 100;
    EXPECT_GE(latency, 10);
    EXPECT_LE(latency, 20);
  }
}

TEST_F(NetworkTest, IsUpReflectsAttachAndState) {
  EXPECT_FALSE(net_.isUp(idA_));
  net_.attach(idA_, a_);
  EXPECT_FALSE(net_.isUp(idA_));  // attached but down
  net_.setUp(idA_, true);
  EXPECT_TRUE(net_.isUp(idA_));
  net_.setUp(idA_, false);
  EXPECT_FALSE(net_.isUp(idA_));
}

}  // namespace
}  // namespace avmon::sim
