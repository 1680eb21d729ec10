#!/usr/bin/env bash
# Runs every workload once and prints its end-to-end metrics. Run it from
# the repository root:
#
#	bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-25}
for w in t1-paper serve-mix serve-replay; do
	echo "== $w =="
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
done
