#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under bench/ (.build/ and
# out/, both ignored), so a checkout is otherwise left as it was found.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOTMPDIR="$here/.build/tmp" GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR"
cd "$here"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit-dirty"
fi
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$here/.build/reo-bench" . >&2
exec "$here/.build/reo-bench" "$@"
