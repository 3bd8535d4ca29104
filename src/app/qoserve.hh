/**
 * @file
 * Umbrella header: the full public API of the QoServe library.
 */

#ifndef QOSERVE_APP_QOSERVE_HH
#define QOSERVE_APP_QOSERVE_HH

#include "cluster/admission.hh"
#include "cluster/capacity.hh"
#include "cluster/cluster.hh"
#include "cluster/disagg.hh"
#include "cluster/replica.hh"
#include "app/scenario.hh"
#include "app/serving_system.hh"
#include "fault/fault_injector.hh"
#include "kvcache/block_manager.hh"
#include "metrics/percentile.hh"
#include "metrics/report_io.hh"
#include "metrics/telemetry.hh"
#include "metrics/slo_report.hh"
#include "model/hardware_config.hh"
#include "model/model_config.hh"
#include "model/perf_model.hh"
#include "predictor/latency_predictor.hh"
#include "predictor/profiler.hh"
#include "predictor/random_forest.hh"
#include "sched/baseline_schedulers.hh"
#include "sched/batch.hh"
#include "sched/dp_scheduler.hh"
#include "sched/qoserve_scheduler.hh"
#include "sched/request.hh"
#include "sched/scheduler.hh"
#include "simcore/event_queue.hh"
#include "simcore/logging.hh"
#include "simcore/rng.hh"
#include "simcore/thread_pool.hh"
#include "simcore/time.hh"
#include "workload/arrival.hh"
#include "workload/dataset.hh"
#include "workload/qos.hh"
#include "workload/trace.hh"
#include "workload/trace_io.hh"

#endif // QOSERVE_APP_QOSERVE_HH
