// Reception contract of radio::Channel, pinned bit for bit.
//
// Every simulated output of the packet tier rests on the order in which the
// channel resolves a drained busy period and draws from the simulator's one
// RNG stream. The contract:
//
//   1. Receivers drain in attach order.
//   2. A draining receiver in kRx raises activity first.
//   3. Unless it transmitted during its period, it then makes exactly one
//      bernoulli draw for a lone frame or for k identical HACKs (deaf
//      radios and radios whose address filter rejects the frame draw too),
//      or the capture model's own draws for k distinct frames.
//   4. Its delivery happens before the next receiver draws: handlers may
//      draw from the RNG (CsmaMac::send) or transmit synchronously.
//   5. A frame launched mid-drain joins the period of every receiver that
//      has not drained yet.
//
// Seeded random traffic (lone frames, HACK superpositions, auto-ACKed
// polls, distinct-frame collisions, staggered and nested overlaps, long
// chains that keep the medium busy, deafness and power cycling mid-period,
// a radio detached mid-period) runs through three 40-radio worlds: infinite
// range with geometric capture, infinite range with SINR capture, and a
// 30 m unit-disk world. Every delivery, every activity indication, the
// cluster count and the next raw RNG word fold into one digest per (world,
// seed). The expected digests were recorded by running this script against
// the channel as it stood before its sender-less injection path was
// removed; any change to the draw order or to what a receiver hears changes
// them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "csma_mac.hpp"
#include "radio/capture.hpp"
#include "radio/channel.hpp"
#include "radio/hack_model.hpp"
#include "radio/radio.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

enum class World { kGeometric, kSinr, kSpatial };

constexpr std::size_t kRadios = 40;
constexpr std::size_t kFrames = 300;
constexpr ShortAddr kAddrBase = 0x100;
constexpr ShortAddr kForeignAddr = 0xBEEF;

Frame data_frame(ShortAddr src, ShortAddr dest, std::uint8_t seq,
                 std::size_t bytes) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dest = dest;
  f.seq = seq;
  f.data.resize(bytes);
  return f;
}

Frame reply_frame(ShortAddr src, std::uint8_t seq) {
  Frame f;
  f.type = FrameType::kReply;
  f.src = src;
  f.dest = kAddrBase;
  f.seq = seq;
  f.session = seq;
  return f;
}

std::uint64_t run_world(World world, std::uint64_t seed) {
  sim::Simulator sim(seed);
  ChannelConfig cfg;
  cfg.hack = HackReceptionModel();  // the paper's fit
  cfg.clean_loss = 0.05;
  if (world == World::kSinr) {
    cfg.capture = std::make_shared<SinrCaptureModel>();
  } else {
    cfg.capture = std::make_shared<GeometricCaptureModel>(0.8, 0.5);
  }
  if (world == World::kSpatial) cfg.range = 30.0;
  Channel channel(sim, cfg);
  // The traffic script has its own stream: the simulator's stream belongs
  // to the channel and the MAC, whose draws are what the digest pins.
  RngStream script(seed, 0xc0417ac7);
  Digest d;

  const auto fold_delivery = [&d, &sim](std::size_t who, const Frame& f,
                                        const RxInfo& info) {
    d.add(1);
    d.add(who);
    d.add(static_cast<std::uint64_t>(f.type));
    d.add(f.seq);
    d.add(f.src);
    d.add(f.dest);
    d.add(info.superposed);
    d.add(info.contenders);
    d.add(info.captured);
    d.add(static_cast<std::uint64_t>(info.start));
    d.add(static_cast<std::uint64_t>(info.end));
    d.add(static_cast<std::uint64_t>(sim.now()));
  };
  const auto fold_activity = [&d](std::size_t who, SimTime s, SimTime e) {
    d.add(2);
    d.add(who);
    d.add(static_cast<std::uint64_t>(s));
    d.add(static_cast<std::uint64_t>(e));
  };

  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < kRadios; ++i) {
    radios.push_back(std::make_unique<Radio>(
        channel, static_cast<NodeId>(i),
        static_cast<ShortAddr>(kAddrBase + i)));
    Radio& r = *radios.back();
    if (world == World::kSpatial)
      r.set_position(script.uniform_real(0.0, 80.0),
                     script.uniform_real(0.0, 80.0));
    r.power_on();
    // A quarter of the radios answer one of three ephemeral poll
    // addresses with an automatic HACK.
    if (i % 4 == 0)
      r.set_alt_address(static_cast<ShortAddr>(kEphemeralBase + i % 3));
    r.set_receive_handler([&fold_delivery, i](const Frame& f,
                                              const RxInfo& info) {
      fold_delivery(i, f, info);
    });
    // Every third radio has no activity handler.
    if (i % 3 != 0)
      r.set_activity_handler([&fold_activity, i](SimTime s, SimTime e) {
        fold_activity(i, s, e);
      });
  }

  // Radio 1 rebroadcasts some broadcasts synchronously, from inside the
  // drain (rules 4 and 5).
  Radio& echo = *radios[1];
  echo.set_receive_handler([&](const Frame& f, const RxInfo& info) {
    fold_delivery(1, f, info);
    if (f.type == FrameType::kData && f.dest == kBroadcastAddr &&
        f.seq % 3 == 0 && echo.is_on() && !echo.transmitting())
      echo.transmit(data_frame(echo.short_address(), kBroadcastAddr,
                               static_cast<std::uint8_t>(f.seq + 1), 6));
  });
  // Radio 2 queues a CSMA send from inside the drain: the backoff draw
  // happens before the next receiver's reception draw (rule 4).
  mac::CsmaMac csma(*radios[2]);
  radios[2]->set_receive_handler([&](const Frame& f, const RxInfo& info) {
    fold_delivery(2, f, info);
    if (f.type == FrameType::kData && f.seq % 2 == 0)
      csma.send(data_frame(radios[2]->short_address(), kBroadcastAddr,
                           static_cast<std::uint8_t>(f.seq ^ 0x55), 12));
  });
  // Radio 5 draws from the RNG when activity is raised (rule 2: activity
  // comes before the receiver's own reception draw).
  radios[5]->set_activity_handler([&](SimTime s, SimTime e) {
    fold_activity(5, s, e);
    d.add(sim.rng().bits());
  });

  // Radio 7 answers every fourth activity indication with a frame of its
  // own, from inside the drain: it still makes its draw for that period,
  // but no longer listening, it takes no delivery.
  std::size_t activities_seen = 0;
  Radio& talker = *radios[7];
  talker.set_activity_handler([&](SimTime s, SimTime e) {
    fold_activity(7, s, e);
    if (++activities_seen % 4 == 0 && talker.is_on() &&
        !talker.transmitting())
      talker.transmit(
          data_frame(talker.short_address(), kBroadcastAddr, 0x77, 3));
  });

  // A listener detached mid-period, later in the run.
  auto extra = std::make_unique<Radio>(channel, static_cast<NodeId>(kRadios),
                                       static_cast<ShortAddr>(0x7000));
  extra->set_auto_ack(false);
  extra->power_on();
  extra->set_receive_handler([&fold_delivery](const Frame& f,
                                              const RxInfo& info) {
    fold_delivery(kRadios, f, info);
  });

  // Script senders are radios 3.. (radios 0-2 keep their roles); the
  // script never powers off the CSMA radio, whose queue must transmit.
  const auto pick_idle = [&]() -> Radio* {
    for (int tries = 0; tries < 8; ++tries) {
      Radio& r = *radios[3 + script.uniform_below(kRadios - 3)];
      if (r.is_on() && !r.transmitting()) return &r;
    }
    return nullptr;
  };

  std::size_t sent = 0;
  std::uint8_t seq = 0;
  while (sent < kFrames) {
    const auto gap = script.bernoulli(0.2)
                         ? SimTime{0}
                         : static_cast<SimTime>(script.uniform_below(4000));
    sim.run_until(sim.now() + gap);
    switch (script.uniform_below(10)) {
      case 0:
      case 1: {  // lone data frame: broadcast, unicast or foreign
        Radio* s = pick_idle();
        if (s == nullptr) break;
        const auto pick = script.uniform_below(3);
        const ShortAddr dest =
            pick == 0 ? kBroadcastAddr
            : pick == 1
                ? static_cast<ShortAddr>(kAddrBase +
                                         script.uniform_below(kRadios))
                : kForeignAddr;
        s->transmit(data_frame(s->short_address(), dest, ++seq,
                               script.uniform_below(40)));
        ++sent;
        break;
      }
      case 2:
      case 3: {  // HACK burst, identical or with one distinct HACK
        const bool mixed = script.bernoulli(0.3);
        const auto k = 1 + script.uniform_below(6);
        const std::uint8_t hs = ++seq;
        // Broadcast HACKs reach every handler, not just radio 0's.
        const ShortAddr dest =
            script.bernoulli(0.5) ? kBroadcastAddr : kAddrBase;
        for (std::uint64_t j = 0; j < k; ++j) {
          Radio* s = pick_idle();
          if (s == nullptr) continue;
          const auto hseq = static_cast<std::uint8_t>(
              mixed && j == k - 1 ? hs + 1 : hs);
          s->transmit(make_hack(hseq, dest));
          ++sent;
        }
        break;
      }
      case 4: {  // ack-requesting poll: armed radios HACK in unison
        Radio* s = pick_idle();
        if (s == nullptr) break;
        Frame f;
        f.type = FrameType::kPoll;
        f.src = s->short_address();
        f.dest = static_cast<ShortAddr>(kEphemeralBase +
                                        script.uniform_below(3));
        f.seq = ++seq;
        f.ack_request = true;
        s->transmit(std::move(f));
        ++sent;
        break;
      }
      case 5: {  // distinct replies collide (capture)
        const auto k = 2 + script.uniform_below(5);
        for (std::uint64_t j = 0; j < k; ++j) {
          Radio* s = pick_idle();
          if (s == nullptr) continue;
          s->transmit(reply_frame(s->short_address(), ++seq));
          ++sent;
        }
        break;
      }
      case 6: {  // staggered overlap, or a long chain that never idles
        const auto len = script.bernoulli(0.25) ? 20 + script.uniform_below(60)
                                                : 2 + script.uniform_below(2);
        for (std::uint64_t j = 0; j < len; ++j) {
          Radio* s = pick_idle();
          if (s != nullptr) {
            Frame f = data_frame(s->short_address(), kBroadcastAddr, ++seq,
                                 4 + script.uniform_below(20));
            const SimTime air = channel.airtime(f);
            s->transmit(std::move(f));
            ++sent;
            sim.run_until(sim.now() + 1 +
                          static_cast<SimTime>(script.uniform_below(
                              static_cast<std::uint64_t>(air - 1))));
          }
        }
        break;
      }
      case 7:
      case 8: {  // deafness or a power cycle landing mid-period
        Radio* s = pick_idle();
        if (s == nullptr) break;
        Frame f = data_frame(s->short_address(), kBroadcastAddr, ++seq,
                             16 + script.uniform_below(16));
        const SimTime air = channel.airtime(f);
        s->transmit(std::move(f));
        ++sent;
        Radio* victim = radios[3 + script.uniform_below(kRadios - 3)].get();
        const SimTime down = static_cast<SimTime>(script.uniform_below(
            static_cast<std::uint64_t>(2 * air)));
        if (script.bernoulli(0.5)) {
          sim.schedule_after(air / 2, [victim] {
            victim->set_deaf(!victim->deaf());
          });
        } else {
          sim.schedule_after(air / 2, [victim] { victim->power_off(); });
          sim.schedule_after(air / 2 + down, [victim] { victim->power_on(); });
        }
        if (extra != nullptr && sent > kFrames / 2)
          sim.schedule_after(air / 3, [&extra] { extra.reset(); });
        break;
      }
      case 9: {  // a short frame nested inside a long one
        // With a finite range, receivers that hear only the long frame and
        // receivers that hear both drain in the same event, over the same
        // log positions, with different windows.
        Radio* outer = pick_idle();
        if (outer == nullptr) break;
        outer->transmit(data_frame(outer->short_address(), kBroadcastAddr,
                                   ++seq, 30 + script.uniform_below(20)));
        ++sent;
        sim.run_until(sim.now() + 1 +
                      static_cast<SimTime>(script.uniform_below(200)));
        if (Radio* inner = pick_idle()) {
          inner->transmit(script.bernoulli(0.5)
                              ? make_hack(++seq, kBroadcastAddr)
                              : data_frame(inner->short_address(),
                                           kBroadcastAddr, ++seq,
                                           script.uniform_below(6)));
          ++sent;
        }
        break;
      }
    }
  }
  sim.run();

  d.add(channel.clusters_resolved());
  d.add(sim.rng().bits());
  for (const auto& r : radios) d.add(r->frames_received());
  d.add(csma.frames_sent());
  d.add(csma.frames_dropped());
  return d.h;
}

constexpr std::array<std::uint64_t, 8> kSeeds = {1, 2, 3, 5, 8, 13, 21, 34};

void expect_digests(World world,
                    const std::array<std::uint64_t, kSeeds.size()>& want) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i)
    EXPECT_EQ(run_world(world, kSeeds[i]), want[i])
        << "seed " << kSeeds[i] << ": got 0x" << std::hex
        << run_world(world, kSeeds[i]);
}

// Recorded before the injection path was removed; they must never change.
TEST(ChannelContract, InfiniteRangeGeometricCapture) {
  expect_digests(World::kGeometric,
                 {0x72ba4895553593a4, 0xa438dd118b340db9, 0xe75ee7325d4deb98,
                  0x54fef86f4eabef2c, 0x55288897b8e397a8, 0xc202d7604e75137a,
                  0x0ba57e8081d608c4, 0xa71b7ccb4152841b});
}

TEST(ChannelContract, InfiniteRangeSinrCapture) {
  expect_digests(World::kSinr,
                 {0x37ca701994884964, 0x440b9048e606c936, 0xafe8cd5eecf6c6d9,
                  0xf0bc06b945a54b54, 0xffd3be99208bb42d, 0x4c913d8dc1e158bd,
                  0xfb6c53acab894106, 0xcbe87d63f0979ad2});
}

TEST(ChannelContract, FiniteRangeWorld) {
  expect_digests(World::kSpatial,
                 {0x35dab321639c37bd, 0x1ebeaa5709a79e97, 0xb82682b3f40e2757,
                  0xa9f20c5fca240de9, 0x9a33084055eb6d58, 0x807e318cef8b12b3,
                  0xe8e9a9a457131630, 0x9f61340544105ef4});
}

TEST(ChannelContract, RunsAreDeterministic) {
  EXPECT_EQ(run_world(World::kGeometric, 99), run_world(World::kGeometric, 99));
  EXPECT_EQ(run_world(World::kSpatial, 99), run_world(World::kSpatial, 99));
}

}  // namespace
}  // namespace tcast::radio
