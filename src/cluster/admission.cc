/**
 * @file
 * Admission controller implementation.
 */

#include "cluster/admission.hh"

#include <algorithm>
#include <cmath>

#include "simcore/logging.hh"

namespace qoserve {

AdmissionController::AdmissionController(Config cfg)
    : cfg_(cfg), bucket_(cfg.burstSize)
{
    // Misconfiguration is a user error, not an internal invariant:
    // fail with a clear message instead of aborting (mirrors
    // BlockManager's constructor validation).
    if (cfg_.policy == AdmissionPolicy::RateLimit) {
        if (!(cfg_.rateLimitQps > 0.0) ||
            !std::isfinite(cfg_.rateLimitQps))
            QOSERVE_FATAL("RateLimit admission requires a positive "
                          "finite rateLimitQps, got ",
                          cfg_.rateLimitQps);
        if (!(cfg_.burstSize >= 1.0) || !std::isfinite(cfg_.burstSize))
            QOSERVE_FATAL("RateLimit admission requires burstSize >= 1 "
                          "(a bucket that can never hold one token "
                          "admits nothing), got ",
                          cfg_.burstSize);
    }
    if (cfg_.policy == AdmissionPolicy::LoadShed) {
        if (cfg_.maxBacklogTokens <= 0)
            QOSERVE_FATAL("LoadShed admission requires a positive "
                          "maxBacklogTokens, got ",
                          cfg_.maxBacklogTokens);
    }
}

bool
AdmissionController::admit(const RequestSpec &spec, SimTime now,
                           TokenCount target_backlog)
{
    (void)spec;
    bool ok = true;
    switch (cfg_.policy) {
      case AdmissionPolicy::None:
        break;
      case AdmissionPolicy::RateLimit: {
        bucket_ = std::min(cfg_.burstSize,
                           bucket_ + (now - lastRefill_) *
                                         cfg_.rateLimitQps);
        lastRefill_ = now;
        // Epsilon absorbs accumulated floating-point refill error so
        // an exactly-at-rate arrival stream admits at the rate.
        if (bucket_ >= 1.0 - 1e-9)
            bucket_ = std::max(0.0, bucket_ - 1.0);
        else
            ok = false;
        break;
      }
      case AdmissionPolicy::LoadShed:
        ok = target_backlog.value() < cfg_.maxBacklogTokens;
        break;
    }
    if (ok) {
        ++admitted_;
    } else {
        ++rejected_;
        if (trace_ != nullptr)
            trace_->emit(TraceEventKind::AdmissionReject, spec.id);
    }
    return ok;
}

} // namespace qoserve
