#!/usr/bin/env bash
# Model-kind dispatch gate and src/ size.  The model kind is looked up once,
# in model_io.FAMILIES, so no line of src/ may match the dispatch pattern.
# Prints both counts (and appends them to $GITHUB_STEP_SUMMARY when set);
# exits nonzero if any line matches.  Run from the repository root.
set -euo pipefail
dispatch=$(cat src/docnade/*.py | grep -cE 'is_deep|is_supervised|DEEP_KINDS|SUPERVISED_KINDS|meta\.kind|meta\.family *[!=]=|tree is (not )?None' || true)
lines=$(cat src/docnade/*.py | wc -l)
echo "model-kind dispatch lines: $dispatch (at most 0); src/ lines: $lines" | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
test "$dispatch" -le 0
