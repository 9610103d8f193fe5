# Shared by the steps of the CI demos job. Source it from the repository
# root, then `expect CODE ARGS...` runs `python -m dpcover ARGS...` on the
# package under src/ and fails the step unless it exits with CODE; `replay`
# (below) checks a written certificate against its instance file.
expect() {
  want=$1; shift
  rc=0
  PYTHONPATH=src python -m dpcover "$@" > /dev/null || rc=$?
  echo "dpcover $*: exit $rc"
  [ "$rc" -eq "$want" ] || { echo "expected exit $want"; exit 1; }
}

# `replay INSTANCE CERTIFICATE` reads both files back, the certificate
# through certificate_from_json, and fails the step unless
# verify_certificate holds on them.
replay() {
  PYTHONPATH=src python -W error -c 'import json, sys
from pathlib import Path
from dpcover import verify_certificate
from dpcover.serialize import certificate_from_json, instance_from_json
inst = instance_from_json(json.loads(Path(sys.argv[1]).read_text()))
cert = certificate_from_json(json.loads(Path(sys.argv[2]).read_text()))
holds = verify_certificate(inst, cert)
print(f"replay {sys.argv[2]} against {sys.argv[1]}: verify_certificate {holds}")
sys.exit(0 if holds else 1)' "$1" "$2"
}
