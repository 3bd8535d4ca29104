# Golden run of one example (or argument-free bench) binary: its
# stdout must match the SHA-256 below byte for byte. These binaries
# take no arguments and print only simulated results, so the digest is
# fixed for a given source tree.
#
#   cmake -DBIN=<path to the binary> -DCASE=<binary name>
#         -DOUT=<scratch file> -P examples_golden.cmake
#
# A change that alters an example's output on purpose updates its
# digest in the same commit and says why. On a mismatch the script
# prints the digest it got.

foreach(_var BIN CASE OUT)
    if(NOT DEFINED ${_var})
        message(FATAL_ERROR "examples_golden: -D${_var}=... is required")
    endif()
endforeach()

set(_expected
    quickstart            76b2a4132d3cf5ab6b9983f991b435b4763cf87dea184513030720a04aff6686
    multi_tenant_copilot  35d4dcb85e3ec38696534dd69bba19e2a3c4e9fbeef3b7d9ad5d48bcc63bf1a5
    overload_shedding     be4f5a4946becf59c3fdf91e755616a4cbaf5bee536285f59f33db9cf743507c
    capacity_planner      ec6745e11befd0f3e74c0627f9420e2ddd3f949612ee67ee80b74ad32be90fa0
    disaggregated_serving 7ff632f89a7056b4e19d72e3db8838cc5da542dba04605899fc39ec4b5530af3
    ext_decode_pool       65a3705a1d77f65c35827210b2979287f3753d3a3cc55694a1a215f3c1a5fbbd
    ext_chaos             a9c8dcd05dc7d0e5ec99d1e208dc38d63021d327f46f4a16bc4804726a3a3208
    ext_failures          3b16aa76683d1ffa99dda12e391d085c069d9a21deb38ec3731333377013bc4d)

list(FIND _expected ${CASE} _at)
if(_at EQUAL -1)
    message(FATAL_ERROR "examples_golden: unknown CASE '${CASE}'")
endif()
math(EXPR _at "${_at} + 1")
list(GET _expected ${_at} _want)

execute_process(
    COMMAND ${BIN}
    OUTPUT_FILE ${OUT}
    ERROR_VARIABLE _err
    RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${CASE} exited with ${_rc}:\n${_err}")
endif()
file(SHA256 ${OUT} _got)
if(NOT _got STREQUAL _want)
    message(FATAL_ERROR "${CASE} stdout: digest ${_got}, expected ${_want}")
endif()
