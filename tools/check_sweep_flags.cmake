# `dnsctx sweep` builds its scenario the way simulate does: --config,
# then --pack over it, then the scenario flags. Writes CONF (6 houses,
# 1 hour) and sweeps p2p_house_frac = 0 over four scenarios:
#   - --config CONF --houses 2 must print the rows of --houses 2 --hours 1
#     (the flag wins over the file);
#   - --config CONF alone must print other rows (so the flag mattered);
#   - adding --pack PACK must change the rows (the pack is applied).
#
#   cmake -DDNSCTX=path/to/dnsctx -DCONF=file -DPACK=file -P check_sweep_flags.cmake
foreach(var DNSCTX CONF PACK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

function(sweep var)
  execute_process(COMMAND "${DNSCTX}" sweep --key p2p_house_frac --values 0 ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${ARGN} failed (exit ${rc}):\n${err}")
  endif()
  set(${var} "${out}" PARENT_SCOPE)
endfunction()

file(WRITE "${CONF}" "houses = 6\nduration_hours = 1\n")
sweep(config_and_flag --config "${CONF}" --houses 2)
sweep(flags_only --houses 2 --hours 1)
sweep(config_only --config "${CONF}")
sweep(config_flag_pack --config "${CONF}" --houses 2 --pack "${PACK}")
if(NOT config_and_flag STREQUAL flags_only)
  message(FATAL_ERROR "--houses was not honoured beside --config:\n"
                      "${config_and_flag}\nexpected:\n${flags_only}")
endif()
if(config_and_flag STREQUAL config_only)
  message(FATAL_ERROR "--houses 2 and houses = 6 gave the same rows:\n${config_only}")
endif()
if(config_flag_pack STREQUAL config_and_flag)
  message(FATAL_ERROR "--pack was not applied beside --config:\n${config_flag_pack}")
endif()
