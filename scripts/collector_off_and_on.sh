# Defines a shell function, spas, for a shell to source from a checkout:
#
#   . scripts/collector_off_and_on.sh; spas verify --force a6.spa
#
# It runs spas twice on its arguments: as python -m spas, whose entry turns
# the cyclic collector off, and through spas.cli.main with the collector
# on.  Each run is the only child of a fresh python, whose
# getrusage(RUSAGE_CHILDREN) peak is that run's alone.  Both runs must exit
# alike and print the same, and the collector-off peak RSS may be at most
# 10% above the other, a relative bound that holds on any machine; if not,
# the function exits the sourcing shell with status 1.  Otherwise it prints
# the collector-off run's stdout and returns its exit code.  Each call
# appends both peaks to rss.log and leaves off.out, on.out and their .rss
# files in the working directory.

spas_src="$(cd "$(dirname "${BASH_SOURCE:-$0}")/../src" && pwd)"
spas_peak='import resource, subprocess, sys; code = subprocess.run(sys.argv[2:], stdout=open(sys.argv[1], "w")).returncode; print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=open(sys.argv[1] + ".rss", "w")); sys.exit(code)'

spas() {
  PYTHONPATH="$spas_src" python -c "$spas_peak" off.out timeout 60 python -m spas "$@" && off=0 || off=$?
  PYTHONPATH="$spas_src" python -c "$spas_peak" on.out timeout 60 \
    python -c 'from spas.cli import main; raise SystemExit(main())' "$@" && on=0 || on=$?
  echo "spas $*: exit $off; peak RSS $(cat off.out.rss) KiB with the collector off, $(cat on.out.rss) KiB on" >> rss.log
  if [ "$off" != "$on" ] || ! cmp -s off.out on.out \
      || [ $(($(cat off.out.rss) * 10)) -gt $(($(cat on.out.rss) * 11)) ]; then
    echo "collector off and on differ: $(tail -n 1 rss.log)" >&2
    exit 1
  fi
  cat off.out
  return "$off"
}
