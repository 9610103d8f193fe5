# Shared by the steps of the CI demos job. Source it from the repository
# root, then `expect CODE ARGS...` runs `python -m dpcover ARGS...` on the
# package under src/ and fails the step unless it exits with CODE.
expect() {
  want=$1; shift
  rc=0
  PYTHONPATH=src python -m dpcover "$@" > /dev/null || rc=$?
  echo "dpcover $*: exit $rc"
  [ "$rc" -eq "$want" ] || { echo "expected exit $want"; exit 1; }
}
