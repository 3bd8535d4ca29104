/**
 * @file
 * Serving configuration: policy names and the scheduler and
 * predictor factories.
 */

#include "app/serving_system.hh"

#include "simcore/logging.hh"

namespace qoserve {

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::QoServe:
        return "QoServe";
      case Policy::SarathiFcfs:
        return "Sarathi-FCFS";
      case Policy::SarathiEdf:
        return "Sarathi-EDF";
      case Policy::SarathiSjf:
        return "Sarathi-SJF";
      case Policy::SarathiSrpf:
        return "Sarathi-SRPF";
      case Policy::Medha:
        return "Medha";
      case Policy::SlosServeDp:
        return "SLOs-Serve-DP";
    }
    QOSERVE_PANIC("unknown policy");
}

SchedulerFactory
makeSchedulerFactory(const ServingConfig &cfg)
{
    switch (cfg.policy) {
      case Policy::QoServe:
        return [qos = cfg.qoserve, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<QoServeScheduler>(env, qos, base);
        };
      case Policy::SarathiFcfs:
        return [base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<FcfsScheduler>(env, base);
        };
      case Policy::SarathiEdf:
        return [base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<EdfScheduler>(env, base);
        };
      case Policy::SarathiSjf:
        return [base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<SjfScheduler>(env, base);
        };
      case Policy::SarathiSrpf:
        return [base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<SrpfScheduler>(env, base);
        };
      case Policy::Medha:
        return [opts = cfg.medha, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<MedhaScheduler>(env, opts, base);
        };
      case Policy::SlosServeDp:
        return [base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<DpScheduler>(env, base);
        };
    }
    QOSERVE_PANIC("unknown policy");
}

bool
usesPredictor(const ServingConfig &cfg)
{
    return cfg.policy == Policy::QoServe &&
           cfg.qoserve.enableDynamicChunking;
}

std::shared_ptr<const LatencyPredictor>
makePredictor(const ServingConfig &cfg)
{
    if (!usesPredictor(cfg))
        return nullptr;

    PerfModel model(cfg.hw, cfg.perfParams);
    if (cfg.useForestPredictor)
        return std::make_shared<ForestLatencyPredictor>(model, cfg.trainJobs);
    return std::make_shared<OracleLatencyPredictor>(model);
}

} // namespace qoserve
