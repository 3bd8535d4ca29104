# Golden run of the qoserve_sim binary: one fixed flag line, run into a
# fresh directory, and the SHA-256 of its stdout and of every file it
# writes must match the digests below. The digests do not depend on
# --jobs, so each line is registered at --jobs 1 and --jobs 4 and both
# check against the same table. Each run's "replay:" line is then
# rerun into a fresh directory and checked against the same table.
#
#   cmake -DSIM=<path to qoserve_sim> -DJOBS=<n> -DOUT=<scratch dir>
#         -DCASE=obs|obs_nomemo|chaos|faults_domains|help|fcfs|edf|sjf|
#                srpf|medha|dp
#         -P qoserve_sim_golden.cmake
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
elseif(CASE STREQUAL "faults_domains")
    # Independent crashes, stragglers, zone outages and partitions on
    # one line: the composition rules of the one fault injector.
    set(_args
        --replicas 4 --qps 8 --duration 300
        --fault-mtbf 60 --fault-mttr 10 --straggler-mtbf 40
        --zones 2 --zone-mtbf 80 --zone-mttr 15
        --partition-mtbf 60 --partition-mttr 5
        --trace-csv ${OUT}/events.csv
        --records-out ${OUT}/records.csv
        --summary-out ${OUT}/summary.csv)
    set(_expected
        stdout.txt    90106a28dc685adff5b05b63f8224e669deaf29f602b2510faa397833fc5f953
        events.csv    4320f336242abcb39f70779ce6d919755a364befab57d7c3750cb355642a2c84
        records.csv   69fc898a6a74a76ee80a64f3285ada4fb243ecaef4d1754a8edeb41419618932
        summary.csv   9cf29365abe2580e7811053e313fa86ee7ef805e7632090287444d9edc7c969a)
elseif(CASE STREQUAL "help")
    # The --help text, byte for byte (6506 bytes).
    set(_args --help)
    set(_expected
        stdout.txt    a2ec76a7a2d3791a55bbc94e3ec4d85f9b6e54c0b2c20013a7d722c2a6d18993)
elseif(CASE MATCHES "^(fcfs|edf|sjf|srpf|medha|dp)$")
    # One short run per baseline policy.
    set(_args
        --policy ${CASE} --replicas 2 --qps 6 --duration 120
        --records-out ${OUT}/records.csv
        --summary-out ${OUT}/summary.csv)
    if(CASE STREQUAL "fcfs")
        set(_expected
            stdout.txt  1bd6867efabc52467a9890178b8f395bbebdbb6ae80d258a02c8f0ae7bb98d53
            records.csv 413e8f1057383324ed9862e165b5f1aee56ad6880ebbcdbb539fe4803725d0ef
            summary.csv 65be5b45d8624ad10dc18bf01358b1cb7836998feaa02a3670acb178cec74f4c)
    elseif(CASE STREQUAL "edf")
        set(_expected
            stdout.txt  10a81d4531c34069034ffb2a896a9d39d3ed7c8cb22b072a320f9cf14b04e152
            records.csv f11b75680d89447eae9217be94a0c2bddbc38bdcfbba52e66be47f5de65ab34c
            summary.csv 4d7da31981c01649262b528549eecbdd081eff5b6e63fa58500eec4d8182d421)
    elseif(CASE STREQUAL "sjf")
        set(_expected
            stdout.txt  36deeb77f496ba3d8552393f4b39f1a31b25e54eff4d3e006a684187f654fb48
            records.csv ce2519afd1c37e7ab8a74bc38578e864bc8b3e4297eaf35d0d454374696d5702
            summary.csv dd2f0d4a150075a30c71b547244f999529001c605d74952bcc45a89656b295be)
    elseif(CASE STREQUAL "srpf")
        set(_expected
            stdout.txt  0765bb55fadb69a12bd9050f0e31112ee67182d14c88948cba9a6e077be9fa1c
            records.csv 379b1ad765a74fdb938301b930abe91e5e3e7c3d85b3350c536b2c005db6cdef
            summary.csv 61d4ff45b698c5e383e9fa522868491d476a1e537a9ed1bd7bb040398c03504a)
    elseif(CASE STREQUAL "medha")
        set(_expected
            stdout.txt  6710fd8441111164d8ba5dd4649521175554007b88ad8329a65b8c26a712a11c
            records.csv bca810a61cea1e0e7c309417c7f4ab757604c1278a84eef0af708f5029c663cc
            summary.csv 826e5be036ef6747a6a196b3a7a942422fc6b38ae7095df1e5e5eb06f15346df)
    else()
        set(_expected
            stdout.txt  c6bb152d5328a0a0d7d8cd9adaf98746e7a209640c75dfb12f4991aed42a4921
            records.csv 5753d6e7160e9933651304da1605aeb7ccd07496a7cb8abb49de262902226533
            summary.csv 44f6f17a16dede88c6195e9ca6864bb73d1cf7dd21d500ccd956e249be43a947)
    endif()
else()
    message(FATAL_ERROR "qoserve_sim_golden: unknown CASE '${CASE}'")
endif()

# Run qoserve_sim with ARGN into a fresh DIR and check its stdout and
# every file it writes against _expected; the run's stderr lands in
# _stderr in the caller's scope.
function(golden_run DIR WHAT)
    file(REMOVE_RECURSE ${DIR})
    file(MAKE_DIRECTORY ${DIR})
    execute_process(
        COMMAND ${SIM} ${ARGN}
        OUTPUT_FILE ${DIR}/stdout.txt
        ERROR_VARIABLE _err
        RESULT_VARIABLE _rc)
    set(_stderr "${_err}" PARENT_SCOPE)
    if(NOT _rc EQUAL 0)
        message(FATAL_ERROR "qoserve_sim (${WHAT}) exited with ${_rc}:\n${_err}")
    endif()

    # Every file in the directory must be listed, and every listed file
    # must exist with the listed digest.
    file(GLOB _written RELATIVE ${DIR} ${DIR}/*)
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
        if(EXISTS ${DIR}/${_name})
            file(SHA256 ${DIR}/${_name} _got)
        else()
            set(_got "<missing>")
        endif()
        string(APPEND _report "        ${_name} ${_got}\n")
        if(NOT _got STREQUAL _want)
            message(SEND_ERROR "${WHAT} ${_name}: digest ${_got}, expected ${_want}")
            set(_failed TRUE)
        endif()
    endforeach()
    list(SORT _listed)
    if(NOT _written STREQUAL _listed)
        message(SEND_ERROR "${WHAT} wrote [${_written}], expected [${_listed}]")
        set(_failed TRUE)
    endif()
    if(_failed)
        message(FATAL_ERROR "qoserve_sim golden case '${CASE}' "
            "(--jobs ${JOBS}, ${WHAT}) differs; digests of this run:\n${_report}")
    endif()
endfunction()

golden_run(${OUT} "run" ${_args} --jobs ${JOBS})

# Replay: the run's "replay:" stderr line, pointed at a fresh
# directory, must reproduce every digest, so the flag line toFlagLine()
# prints is complete for every flag this case uses.
if(NOT CASE STREQUAL "help")
    string(REGEX MATCH "replay: [^\n]*" _line "${_stderr}")
    if(NOT _line)
        message(FATAL_ERROR "qoserve_sim printed no replay line:\n${_stderr}")
    endif()
    string(REGEX REPLACE "^replay: " "" _line "${_line}")
    string(REPLACE "${OUT}/" "${OUT}_replay/" _line "${_line}")
    separate_arguments(_replay_args UNIX_COMMAND "${_line}")
    golden_run(${OUT}_replay "replay" ${_replay_args})
endif()
