#include "radio/interference.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tcast::radio {

InterferenceSource::InterferenceSource(Channel& channel, Config cfg)
    : channel_(&channel),
      sim_(&channel.simulator()),
      cfg_(cfg),
      timer_(channel.simulator(), [this] { emit(); }) {
  TCAST_CHECK(cfg_.duty >= 0.0 && cfg_.duty < 1.0);
  // The interferer is itself a radio (so its frames occupy the channel like
  // any other), owned by a fictitious foreign node.
  radio_ = std::make_unique<Radio>(*channel_, kNoNode, kForeignAddr);
  radio_->set_position(cfg_.position.first, cfg_.position.second);
  radio_->set_auto_ack(false);
  radio_->power_on();
}

void InterferenceSource::start() {
  if (cfg_.duty <= 0.0 || running_) return;
  running_ = true;
  schedule_next();
}

void InterferenceSource::stop() {
  running_ = false;
  timer_.stop();
}

void InterferenceSource::schedule_next() {
  Frame probe;
  probe.type = FrameType::kData;
  probe.data.resize(kFrameBytes);
  const double burst = static_cast<double>(channel_->airtime(probe));
  // busy/(busy+idle) = duty  ⇒  mean idle gap = burst·(1−duty)/duty.
  const double mean_gap = burst * (1.0 - cfg_.duty) / cfg_.duty;
  double u = sim_->rng().uniform01();
  while (u <= 0.0) u = sim_->rng().uniform01();
  const auto gap = static_cast<SimTime>(-mean_gap * std::log(u));
  timer_.start_one_shot(std::max<SimTime>(1, gap));
}

void InterferenceSource::emit() {
  if (!running_) return;
  if (!radio_->transmitting()) {
    Frame f;
    f.type = FrameType::kData;
    f.src = kForeignAddr;
    f.dest = kForeignAddr;  // foreign PAN: nobody here accepts it
    f.data.resize(kFrameBytes);
    radio_->transmit(std::move(f));
    ++frames_emitted_;
  }
  schedule_next();
}

}  // namespace tcast::radio
