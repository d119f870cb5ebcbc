#!/usr/bin/env bash
# The nm_* metric names the code emits and the ones DESIGN.md documents
# must be the same set. CI runs this in the docs job and ctest runs it as
# check_metric_docs; it exits nonzero
# listing every name that is emitted but undocumented, or documented but
# no longer emitted.
#
# Extraction rule: any "nm_..." string literal in src/ or examples/ is
# considered an emitted metric name, and any backticked `nm_...` token in
# DESIGN.md a documented one. Test-only names (tests/ uses nm_test_*
# markers) are exempt — tests exercise the registry, they don't define the
# dataplane's metric surface.
set -euo pipefail
cd "$(dirname "$0")/.."

emitted=$(grep -rhoE '"nm_[a-z0-9_]+"' src/ examples/ | tr -d '"' | sort -u)
documented=$(grep -oE '`nm_[a-z0-9_]+`' DESIGN.md | tr -d '`' | sort -u)

bad=0
for n in $(comm -23 <(echo "$emitted") <(echo "$documented")); do
  echo "undocumented metric: $n (add it to the DESIGN.md telemetry table)"
  bad=1
done
for n in $(comm -13 <(echo "$emitted") <(echo "$documented")); do
  echo "stale metric doc: $n (nothing in src/ or examples/ emits it; remove it from DESIGN.md)"
  bad=1
done

if [ "$bad" -ne 0 ]; then
  exit 1
fi
echo "all $(echo "$emitted" | wc -l) nm_* metric names are documented in DESIGN.md, and nothing else is"
