#include "serving/budget_controller.h"

#include <algorithm>

namespace rtk {

namespace {

// The feedback rule (see the header): scale multipliers on a full and a
// partial escalation, the per-certified-answer decay of the excess over
// 1.0, and the upper clamp.
constexpr double kFullEscalationMultiplier = 2.0;
constexpr double kPartialEscalationMultiplier = 1.25;
constexpr double kCertifyDecay = 0.98;
constexpr double kMaxScale = 64.0;

}  // namespace

BackendBudgetState* BudgetController::FindOrCreateLocked(
    std::string_view backend) {
  for (BackendBudgetState& state : states_) {
    if (state.backend == backend) return &state;
  }
  states_.push_back(BackendBudgetState{std::string(backend)});
  return &states_.back();
}

double BudgetController::ScaleFor(std::string_view backend) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const BackendBudgetState& state : states_) {
    if (state.backend == backend) return state.scale;
  }
  return 1.0;
}

void BudgetController::Record(std::string_view backend, EscalationMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  BackendBudgetState* state = FindOrCreateLocked(backend);
  switch (mode) {
    case EscalationMode::kFull:
      ++state->full_escalations;
      state->scale =
          std::min(state->scale * kFullEscalationMultiplier, kMaxScale);
      break;
    case EscalationMode::kPartial:
      ++state->partial_escalations;
      state->scale =
          std::min(state->scale * kPartialEscalationMultiplier, kMaxScale);
      break;
    case EscalationMode::kNone:
      ++state->certified;
      // Decay the excess over 1.0, never below it.
      state->scale = 1.0 + (state->scale - 1.0) * kCertifyDecay;
      break;
  }
}

void BudgetController::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  states_.clear();
}

std::vector<BackendBudgetState> BudgetController::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_;
}

}  // namespace rtk
