#!/usr/bin/env bash
# Campaign CLI contract tests:
#   - unwritable output paths fail up front (nonzero exit + stderr diagnostic
#     BEFORE any cell runs), for every output option;
#   - --resume + --trace is rejected (traces are not journaled);
#   - --resume across two invocations produces byte-identical results JSON,
#     with the second invocation replaying the journal instead of re-running;
#   - --figure rejects unknown presets and every matrix/export option it does
#     not compose with (exit 2 + diagnostic), and a preset's --out JSON is
#     byte-identical across pool sizes.
#
# usage: campaign_cli_test.sh CAMPAIGN_BINARY
set -u

CAMPAIGN="$1"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cd "$tmpdir"

fail() {
  echo "campaign_cli_test: FAIL: $*" >&2
  exit 1
}

SMALL=(--kinds cross4 --attacks benign --vpm 30 --rounds 1 --duration-ms 5000)

# --- unwritable path preflight, per output option ---------------------------
for opt in --out --results-out --trace-out --trace-jsonl-out --metrics-out --resume; do
  "$CAMPAIGN" "${SMALL[@]}" "$opt" /nonexistent-dir/x.out > out.log 2> err.log
  status=$?
  [ "$status" -ne 0 ] || fail "$opt /nonexistent-dir did not fail"
  grep -q 'cannot write output path /nonexistent-dir/x.out' err.log \
    || fail "$opt failure carried no diagnostic: $(cat err.log)"
  # Up-front means no simulation ran: the per-cell banner never printed.
  grep -q '^campaign:' out.log && fail "$opt preflight ran the campaign first"
done

# --- --resume + --trace rejected --------------------------------------------
"$CAMPAIGN" "${SMALL[@]}" --resume prog.journal --trace > /dev/null 2> err.log
[ $? -eq 2 ] || fail "--resume --trace accepted"
grep -q 'cannot be combined with tracing' err.log \
  || fail "--resume --trace rejection carried no diagnostic"

# --- resume byte-identity ----------------------------------------------------
"$CAMPAIGN" "${SMALL[@]}" --out a.json --results-out a-results.json \
  > /dev/null 2>&1 || fail "plain run exited $?"
"$CAMPAIGN" "${SMALL[@]}" --out b.json --results-out b-results.json \
  --resume prog.journal > /dev/null 2>&1 || fail "resumable run exited $?"
cmp -s a-results.json b-results.json \
  || fail "resumable results differ from plain run"
[ -s prog.journal ] || fail "no progress journal written"

# Second resumable invocation replays the journal; results stay identical.
"$CAMPAIGN" "${SMALL[@]}" --out c.json --results-out c-results.json \
  --resume prog.journal > /dev/null 2>&1 || fail "journal replay exited $?"
cmp -s a-results.json c-results.json \
  || fail "journal replay results differ from plain run"

# --- --figure presets ---------------------------------------------------------
"$CAMPAIGN" --figure nope > out.log 2> err.log
[ $? -eq 2 ] || fail "--figure nope accepted"
grep -q "unknown figure 'nope'" err.log \
  || fail "--figure nope carried no diagnostic: $(cat err.log)"

for combo in "--kinds cross4" "--attacks V1" "--vpm 60" "--paper-matrix" \
             "--resume prog2.journal" "--results-out r.json" "--trace" \
             "--trace-out t.json" "--trace-jsonl-out t.jsonl" \
             "--metrics-out m.json"; do
  # shellcheck disable=SC2086  # word-split the option and its value
  "$CAMPAIGN" --figure fig7 $combo > out.log 2> err.log
  [ $? -eq 2 ] || fail "--figure fig7 $combo accepted"
  grep -q "cannot be combined with ${combo%% *}" err.log \
    || fail "--figure fig7 $combo carried no diagnostic: $(cat err.log)"
  grep -q '^rounds per point' out.log && fail "--figure fig7 $combo ran the preset"
done

FIG7=(--figure fig7 --rounds 2 --duration-ms 30000)
"$CAMPAIGN" "${FIG7[@]}" --threads 1 --out fig7-t1.json > /dev/null 2>&1 \
  || fail "fig7 at 1 thread exited $?"
"$CAMPAIGN" "${FIG7[@]}" --threads 4 --out fig7-t4.json > /dev/null 2>&1 \
  || fail "fig7 at 4 threads exited $?"
[ -s fig7-t1.json ] || fail "fig7 --out wrote nothing"
grep -q '"fig7": {' fig7-t1.json || fail "fig7 --out JSON lacks its label"
cmp -s fig7-t1.json fig7-t4.json \
  || fail "fig7 --out JSON differs between 1 and 4 threads"

echo "campaign_cli_test: OK"
