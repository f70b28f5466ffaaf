#!/bin/sh
# Every out-of-range option value of mpas_swe_run must end in
# cmdliner's command-line error (exit 124) with a message naming the
# option -- never an uncaught exception (exit 125) or a run that
# silently goes ahead.
# Usage: cli_rejects.sh PATH/TO/mpas_swe_run.exe
run=$1
case $run in */*) ;; *) run=./$run ;; esac
status=0

# check OPTION ARG...: run with ARG... and expect a reject naming OPTION.
check() {
  opt=$1
  shift
  out=$("$run" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "FAIL: mpas_swe_run $* exited $code, want 124"
    status=1
  elif ! printf '%s\n' "$out" | grep -q -- "'$opt'"; then
    echo "FAIL: mpas_swe_run $*: message does not name $opt"
    status=1
  fi
}

check --domains --level 2 --hours 1 --engine parallel --domains 0
check --domains --level 2 --hours 1 --engine distributed --domains 0
check --level --level=-1 --hours 1
check --lloyd --level 2 --hours 1 --lloyd=-3
check --dt --level 2 --hours 1 --dt 0
check --dt --level 2 --hours 1 --dt=-5
check --dt --level 2 --hours 1 --dt=nan
check --hours --level 2 --hours 0
check --hours --level 2 --hours=inf
exit $status
