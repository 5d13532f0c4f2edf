#!/usr/bin/env bash
# docs-check: keep the documentation honest.
#
#   1. Every relative markdown link in README.md and docs/*.md points at a
#      file that exists.
#   2. Every `refrint-cli <subcommand>` the docs mention is a real
#      subcommand (it appears in `refrint-cli help`).
#   3. Every serve endpoint documented in docs/serve.md is routed in
#      crates/serve/src/lib.rs, and vice versa.
#   4. Every `--flag` in the docs/serve.md flag table appears in the CLI
#      usage text.
#   5. No doc shows a flag or command that no longer exists:
#      a. every `--flag` on a README/docs line that invokes
#         `refrint-cli <subcommand>` appears in `refrint-cli help`;
#      b. every `serve-client <command>` the docs mention is listed in
#         serve-client's usage;
#      c. every `--flag` on a README/docs line that invokes `serve-client`
#         appears in serve-client's usage;
#      d. every `--flag` after `perfgate` or `gen-figures` on a README/docs
#         line that invokes it appears in that binary's usage.
#   6. Every `--example <name>` in README.md, docs/*.md and the verify
#      skill names a file in examples/.
#
# Usage: scripts/docs_check.sh [refrint-cli] [serve-client] [perfgate] [gen-figures]
# (paths; the first defaults to target/release/refrint-cli and the others
# to the binaries next to it; build them first:
# cargo build --release -p refrint-cli -p refrint-bench)

set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-target/release/refrint-cli}"
CLIENT="${2:-$(dirname "$CLI")/serve-client}"
PERFGATE="${3:-$(dirname "$CLI")/perfgate}"
GEN_FIGURES="${4:-$(dirname "$CLI")/gen-figures}"
for bin in "$CLI" "$CLIENT" "$PERFGATE" "$GEN_FIGURES"; do
    if [ ! -x "$bin" ]; then
        echo "docs-check: $bin not found — run" \
            "'cargo build --release -p refrint-cli -p refrint-bench' first" >&2
        exit 1
    fi
done

fail=0
err() {
    echo "docs-check: FAIL: $*" >&2
    fail=1
}

docs=(README.md docs/*.md)

# --- 1. relative markdown links resolve -------------------------------------
for doc in "${docs[@]}"; do
    dir=$(dirname "$doc")
    # ](target) occurrences; external and pure-anchor links are skipped,
    # in-page anchors on relative links are stripped before the existence test.
    while IFS= read -r link; do
        case "$link" in
        http://* | https://* | mailto:*) continue ;;
        '#'*) continue ;;
        esac
        target="$dir/${link%%#*}"
        [ -e "$target" ] || err "$doc links to missing file: $link"
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- 2. documented CLI subcommands exist ------------------------------------
help_output=$("$CLI" help)
known_commands=$(printf '%s\n' "$help_output" |
    awk '/^Commands:/{found=1; next} found && /^  [a-z]/ {print $1}' | sort -u)
[ -n "$known_commands" ] || err "could not parse the Commands section of '$CLI help'"

documented_commands=$(grep -ohE 'refrint-cli [a-z][a-z-]*' "${docs[@]}" |
    awk '{print $2}' | grep -v '^help$' | sort -u)
for cmd in $documented_commands; do
    printf '%s\n' "$known_commands" | grep -qx "$cmd" ||
        err "docs mention 'refrint-cli $cmd' but '$CLI help' lists no such subcommand"
done

# Coverage in the other direction: every real subcommand is documented.
for cmd in $known_commands; do
    printf '%s\n' "$documented_commands" | grep -qx "$cmd" ||
        err "subcommand '$cmd' exists but no doc mentions 'refrint-cli $cmd'"
done

# --- 3. documented serve endpoints are routed -------------------------------
routes=crates/serve/src/lib.rs
documented_endpoints=$(grep -ohE '(GET|POST) /[a-z]+' docs/serve.md docs/coordinator.md |
    awk '{print $2}' | sort -u)
[ -n "$documented_endpoints" ] || err "no endpoints found in docs/serve.md"
for ep in $documented_endpoints; do
    grep -qF "\"$ep" "$routes" ||
        err "docs document endpoint $ep but $routes does not route it"
done

# ...and every routed path is documented (the /jobs/ prefix is matched
# dynamically in route(), so it is checked as a prefix).
routed_paths=$({
    grep -oE '"/[a-z]+[/a-z]*" =>' "$routes" | grep -oE '/[a-z]+'
    grep -oE 'starts_with\("/[a-z]+' "$routes" | grep -oE '/[a-z]+'
} | sort -u)
for path in $routed_paths; do
    prefix=$(printf '%s' "$path" | grep -oE '^/[a-z]+')
    printf '%s\n' "$documented_endpoints" | grep -qx "$prefix" ||
        err "$routes routes $path but docs/serve.md does not document it"
done

# --- 4. documented serve flags exist in the usage text ----------------------
documented_flags=$(grep -oE '^\| `--[a-z-]+' docs/serve.md | grep -oE '\-\-[a-z-]+' | sort -u)
[ -n "$documented_flags" ] || err "no flag table found in docs/serve.md"
for flag in $documented_flags; do
    printf '%s\n' "$help_output" | grep -qF -- "$flag" ||
        err "docs/serve.md documents serve flag $flag but '$CLI help' does not mention it"
done

# --- 5a. flags on documented refrint-cli invocations exist -------------------
# A flag matches only as a whole word, so `--trace` is not vouched for by
# `--trace-dir`.
while IFS=: read -r doc lineno text; do
    for flag in $(printf '%s\n' "$text" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
        printf '%s\n' "$help_output" | grep -qE -- "${flag}([^a-z-]|\$)" ||
            err "$doc:$lineno shows $flag on a refrint-cli line but '$CLI help' has no such flag"
    done
done < <(grep -nE 'refrint-cli [a-z]' "${docs[@]}")

# --- 5b. documented serve-client commands exist ------------------------------
# serve-client prints its usage (and fails) when run without arguments.
client_usage=$("$CLIENT" 2>&1 || true)
client_commands=$(printf '%s\n' "$client_usage" |
    awk '/^Commands:/{found=1; next} found && /^  [a-z]/ {print $1}' | sort -u)
[ -n "$client_commands" ] || err "could not parse the Commands section of '$CLIENT' usage"
documented_client_commands=$(grep -ohE 'serve-client( --addr [^ ]+)? [a-z][a-z-]*' "${docs[@]}" |
    awk '{print $NF}' | sort -u)
for cmd in $documented_client_commands; do
    printf '%s\n' "$client_commands" | grep -qx "$cmd" ||
        err "docs mention 'serve-client $cmd' but '$CLIENT' usage lists no such command"
done

# --- 5c. flags on documented serve-client invocations exist -----------------
# Matched as a whole word, like 5a.
while IFS=: read -r doc lineno text; do
    for flag in $(printf '%s\n' "$text" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
        printf '%s\n' "$client_usage" | grep -qE -- "${flag}([^a-z-]|\$)" ||
            err "$doc:$lineno shows $flag on a serve-client line but '$CLIENT' usage has no such flag"
    done
done < <(grep -nE 'serve-client( --addr [^ ]+)? [a-z]' "${docs[@]}")

# --- 5d. flags on documented perfgate and gen-figures invocations exist -----
# Only the text after the binary's name counts, so cargo's own flags on a
# `cargo run --release -p refrint-bench --bin perfgate -- ...` line do not.
# perfgate prints its usage (and fails) when run without arguments.
for bin in perfgate gen-figures; do
    if [ "$bin" = perfgate ]; then
        usage=$("$PERFGATE" 2>&1 || true)
    else
        usage=$("$GEN_FIGURES" --help)
    fi
    while IFS=: read -r doc lineno text; do
        for flag in $(printf '%s\n' "${text#*"$bin"}" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
            printf '%s\n' "$usage" | grep -qE -- "${flag}([^a-z-]|\$)" ||
                err "$doc:$lineno shows $flag on a $bin line but its usage has no such flag"
        done
    done < <(grep -nE "$bin( --)? --[a-z]" "${docs[@]}")
done

# --- 6. documented examples exist -------------------------------------------
for example in $(grep -ohE -- '--example [a-z_][a-z0-9_]*' "${docs[@]}" \
    .claude/skills/verify/SKILL.md | awk '{print $2}' | sort -u); do
    [ -f "examples/$example.rs" ] ||
        err "docs run --example $example but examples/$example.rs does not exist"
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs-check: OK (${#docs[@]} files, $(printf '%s\n' "$known_commands" | wc -l | tr -d ' ') subcommands, $(printf '%s\n' "$documented_endpoints" | wc -l | tr -d ' ') endpoints)"
