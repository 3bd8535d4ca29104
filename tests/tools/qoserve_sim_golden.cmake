# Golden run of the qoserve_sim binary: one fixed flag line, run into a
# fresh directory, and the SHA-256 of its stdout and of every file it
# writes must match the digests below. The digests do not depend on
# --jobs, so each line is registered at --jobs 1 and --jobs 4 and both
# check against the same table.
#
#   cmake -DSIM=<path to qoserve_sim> -DCASE=obs|obs_nomemo|chaos -DJOBS=<n>
#         -DOUT=<scratch dir> -P qoserve_sim_golden.cmake
#
# A change that alters the CLI's output on purpose updates the digests
# in the same commit and says why. On a mismatch the script prints the
# digests it got, in the form this table uses.

foreach(_var SIM CASE JOBS OUT)
    if(NOT DEFINED ${_var})
        message(FATAL_ERROR "qoserve_sim_golden: -D${_var}=... is required")
    endif()
endforeach()

if(CASE STREQUAL "obs" OR CASE STREQUAL "obs_nomemo")
    # The CI obs job's line (shorter), plus the trace, telemetry and
    # summary outputs. obs_nomemo runs the same line with the chunk
    # solver's memo off and checks it against the same digests: the
    # memo must be exact, not just close.
    set(_args
        --policy qoserve --replicas 2 --qps 6 --duration 120
        --fault-mtbf 60 --fault-mttr 10
        --share-ratio 0.5 --prefix-cache --cache-affinity
        --trace ${OUT}/trace.json
        --trace-csv ${OUT}/events.csv
        --metrics-out ${OUT}/metrics.csv
        --records-out ${OUT}/records.csv
        --sketch-out ${OUT}/sketches.csv
        --slo-monitor --slo-alert-budget 0.05 --slo-alert-burn 2
        --slo-alert-short 30 --slo-alert-long 120
        --slo-alerts-out ${OUT}/alerts.csv
        --telemetry-out ${OUT}/telemetry.csv
        --summary-out ${OUT}/summary.csv
        --trace-out ${OUT}/workload.csv)
    if(CASE STREQUAL "obs_nomemo")
        list(APPEND _args --no-solver-cache)
    endif()
    set(_expected
        stdout.txt    7f69758bb95fd06fd6ff700f03a7705e9f597226629206051218432383358c5b
        trace.json    2e118ac14ac702fe24dd908605a20006a774c25d4148454cdf3b59e4426a43eb
        events.csv    ed1b8054bfc0b62c2b4008709f1a5938f984a40b00a1f19473de7fa25127ecb0
        metrics.csv   e3b22f26de39894c9ac1b77202119f7bea1427e4a7bbc34fc3a56df8c7adb289
        records.csv   821e1c9fab5de4216a5eff473d5773efc5d2a4f9e20bd239fead1dff122b1937
        sketches.csv  962f014f84c69680e20d2ad9c6db8570cf8a35c6a155b6dba8f928c7c7379691
        alerts.csv    92872ac36212c6af1ae3463db3b7cb975ee19b211b2823d6efa52d67aa274356
        telemetry.csv 630b62d032a3d28a38bdb5c9cd37b7d531967a9086a5f56849225e9ed2569139
        summary.csv   ee78d3e19583cbc2c8db3f2f3e9e6c22723857f7fba4404812c787def5517df7
        workload.csv  7af7880dd372c165f68e61214bb97e41f90e4054853adba6a9f849cde6c09927)
elseif(CASE STREQUAL "chaos")
    # Failure domains, the breaker, deadline cancellation and brownout
    # on four replicas under overload.
    set(_args
        --replicas 4 --qps 10 --duration 300
        --zones 2 --zone-mtbf 80 --zone-mttr 15
        --partition-mtbf 60 --partition-mttr 5
        --breaker-threshold 3 --deadline-cancel --brownout
        --metrics-out ${OUT}/metrics.csv
        --records-out ${OUT}/records.csv
        --summary-out ${OUT}/summary.csv)
    set(_expected
        stdout.txt    14cd04f9eed44e69368dba7ae7bb12c0c6e4ba6daa1ae8bfb871f215cd765b07
        metrics.csv   7ff23c680277d82cb93717421ee9e29c9edbe4ec0e0b784b7a0015ee769ebf4f
        records.csv   1c2306906c8160426e090ecaf4739ca688e4dabc302fb11e19cfec8118252e2f
        summary.csv   888e85278dd6fc6fd8719e3496c217462724995032c5b0671d3abbf4990e8e6f)
else()
    message(FATAL_ERROR "qoserve_sim_golden: unknown CASE '${CASE}'")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(
    COMMAND ${SIM} ${_args} --jobs ${JOBS}
    OUTPUT_FILE ${OUT}/stdout.txt
    ERROR_VARIABLE _stderr
    RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "qoserve_sim exited with ${_rc}:\n${_stderr}")
endif()

# Every file in the directory must be listed, and every listed file
# must exist with the listed digest.
file(GLOB _written RELATIVE ${OUT} ${OUT}/*)
list(SORT _written)
set(_listed "")
set(_report "")
set(_failed FALSE)
list(LENGTH _expected _n)
math(EXPR _last "${_n} - 1")
foreach(_i RANGE 0 ${_last} 2)
    math(EXPR _j "${_i} + 1")
    list(GET _expected ${_i} _name)
    list(GET _expected ${_j} _want)
    list(APPEND _listed ${_name})
    if(EXISTS ${OUT}/${_name})
        file(SHA256 ${OUT}/${_name} _got)
    else()
        set(_got "<missing>")
    endif()
    string(APPEND _report "        ${_name} ${_got}\n")
    if(NOT _got STREQUAL _want)
        message(SEND_ERROR "${_name}: digest ${_got}, expected ${_want}")
        set(_failed TRUE)
    endif()
endforeach()
list(SORT _listed)
if(NOT _written STREQUAL _listed)
    message(SEND_ERROR "qoserve_sim wrote [${_written}], expected [${_listed}]")
    set(_failed TRUE)
endif()
if(_failed)
    message(FATAL_ERROR "qoserve_sim golden case '${CASE}' "
        "(--jobs ${JOBS}) differs; digests of this run:\n${_report}")
endif()
