#!/usr/bin/env bash
# Size report for the simplicity PRs (ROADMAP item 1): informational, never
# fails on a number.
#
#   scripts/loc.sh [base-ref]
#
# Prints, for every package outside bench/, its non-test .go lines — raw
# (`wc -l`) and code-only (blank and comment-only lines dropped) — with summed
# rows for the two groups ROADMAP item 1 sets targets for (store+stripe+flash,
# cache+cluster+transport+harness), then the
# number of exported *Ctx methods under internal/ that still have a non-Ctx
# sibling on the same receiver in the same file (reo.Cache keeps its
# convenience wrappers and is not counted), then a knob census — every value
# someone can set: flag definitions under cmd/, exported With* options in
# reo.go, #TUNE# keys (the literal keys of every tune/Tune method in
# internal/store and internal/policy, plus the Knob* names of the per-op-class
# registry older refs carry), exported fields of flash.LogConfig, store.Config and
# cache.Config — for the working tree and, given a base ref, for it too, so
# "no knob added, N removed" (ROADMAP item 6b) is a printed number; and, given
# a base ref, the non-test .go diffstat of the working tree against it.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
mapfile -t files < <(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '^bench/' -e '_test\.go$' | sort)

awk '
	FNR == 1 {
		inblock = 0; pkg = FILENAME
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		if (!(pkg in raw)) pkgs[++n] = pkg # files arrive sorted, so packages do too
	}
	{
		raw[pkg]++
		line = $0
		if (inblock) {
			if (!sub(/^.*\*\//, "", line)) next
			inblock = 0
		}
		while (match(line, /\/\*/)) {
			rest = substr(line, RSTART + 2)
			if (match(rest, /\*\//)) {
				line = substr(line, 1, index(line, "/*") - 1) substr(rest, RSTART + 2)
			} else {
				line = substr(line, 1, index(line, "/*") - 1)
				inblock = 1
				break
			}
		}
		if (line ~ /^[ \t]*(\/\/.*)?$/) next
		code[pkg]++
	}
	END {
		printf "%-32s %8s %10s\n", "package (non-test .go)", "raw", "code-only"
		for (i = 1; i <= n; i++) {
			p = pkgs[i]
			printf "%-32s %8d %10d\n", p, raw[p], code[p]
			traw += raw[p]; tcode += code[p]
			if (p ~ /^internal\/(store|stripe|flash)$/) { sraw += raw[p]; scode += code[p] }
			if (p ~ /^internal\/(cache|cluster|transport|harness)$/) { craw += raw[p]; ccode += code[p] }
		}
		printf "%-32s %8d %10d\n", "store+stripe+flash", sraw, scode
		printf "%-32s %8d %10d\n", "cache+cluster+transport+harness", craw, ccode
		printf "%-32s %8d %10d\n", "total", traw, tcode
	}
' "${files[@]}"

# An exported method FooCtx counts when `func (<recv>) Foo(` exists in the same
# file on the same receiver type.
awk '
	FILENAME ~ /^internal\// && match($0, /^func \([A-Za-z_]+ \*?[A-Za-z_]+\) [A-Z][A-Za-z0-9_]*\(/) {
		sig = substr($0, RSTART, RLENGTH - 1)
		split(sig, parts, /[ ()]+/) # "func" recv type name
		typ = parts[3]; sub(/^\*/, "", typ)
		seen[FILENAME SUBSEP typ SUBSEP parts[4]] = 1
	}
	END {
		for (k in seen) {
			split(k, f, SUBSEP)
			if (f[3] ~ /.Ctx$/ && ((f[1] SUBSEP f[2] SUBSEP substr(f[3], 1, length(f[3]) - 3)) in seen)) twins++
		}
		printf "\nexported *Ctx methods under internal/ with a non-Ctx sibling in the same file: %d\n", twins
	}
' "${files[@]}"

# src <ref> <path>...: the non-test .go source under the paths, from the
# working tree when <ref> is empty.
src() {
	local ref=$1 f
	shift
	if [ -n "$ref" ]; then
		git ls-tree -r --name-only "$ref" -- "$@"
	else
		git ls-files -co --exclude-standard -- "$@"
	fi | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
		if [ -n "$ref" ]; then git show "$ref:$f"; else cat "$f"; fi
	done
}

# fields <ref> <package dir> <struct>: its exported fields.
fields() {
	src "$1" "$2" | awk -v decl="^type $3 struct \\{" '
		$0 ~ decl { inside = 1; next }
		inside && /^}/ { inside = 0 }
		inside && /^\t[A-Z][A-Za-z0-9_]*[ \t]/ { n++ }
		END { print n + 0 }'
}

census() { # census <label> <ref>
	local flags with tune lc sc cc
	flags=$(src "$2" cmd | grep -cE '\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)(Var)?\("' || true)
	with=$(src "$2" reo.go | grep -cE '^func With[A-Z]' || true)
	tune=$(src "$2" internal/store internal/policy | awk '/^func \([a-z]+ \*[A-Za-z]+\) [tT]une\(/,/^}/' |
		grep -oE '"[a-z][a-z.]*"' | sort -u | grep -vcx '"policy\."' || true)
	tune=$((tune + $(src "$2" internal/policy | grep -cE '^[[:space:]]Knob[A-Za-z]+ += "' || true)))
	lc=$(fields "$2" internal/flash LogConfig)
	sc=$(fields "$2" internal/store Config)
	cc=$(fields "$2" internal/cache Config)
	printf '%-20.20s %6d %6d %7d %10d %13d %13d %6d\n' "$1" "$flags" "$with" "$tune" "$lc" "$sc" "$cc" \
		$((flags + with + tune + lc + sc + cc))
}

printf '\n%-20s %6s %6s %7s %10s %13s %13s %6s\n' "knob census" flags 'With*' '#TUNE#' LogConfig store.Config cache.Config total
census "working tree" ""

if [ $# -ge 1 ]; then
	census "$1" "$1"
	printf '\nnon-test .go diffstat against %s:\n' "$1"
	git diff --stat=100 "$1" -- '*.go' ':!bench' ':!*_test.go' | tail -n 1
fi
