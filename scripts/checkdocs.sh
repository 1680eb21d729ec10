#!/bin/sh
# checkdocs fails when any package lacks a doc comment: library packages
# need "// Package <name> ..." above the package clause, commands under
# cmd/ need a comment block directly above "package main" (the godoc
# synopsis for the binary). Packages whose exported surface is a public
# contract (internal/serve, internal/bench) additionally require a doc
# comment on every exported identifier, via scripts/checkexported. Last,
# scripts/checkdead fails on any exported identifier under internal/ that
# no non-test code calls and its allowlist does not name. Run via `make
# docscheck`; part of `make check`.
set -eu
cd "$(dirname "$0")/.."

missing=$(go list -f '{{.ImportPath}}|{{.Name}}|{{.Dir}}' . ./internal/... | \
while IFS='|' read -r path name dir; do
	found=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		if grep -q "^// Package $name " "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "$path (want '// Package $name ...')"
	fi
done)

# Commands: some non-test file must carry a comment line directly above
# its "package main" clause.
cmd_missing=$(go list -f '{{.ImportPath}}|{{.Dir}}' ./cmd/... | \
while IFS='|' read -r path dir; do
	found=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		if awk 'prev ~ /^\/\// && /^package main$/ { found = 1 } { prev = $0 }
			END { exit !found }' "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "$path (want a '// ...' doc comment directly above 'package main')"
	fi
done)

if [ -n "$missing" ] || [ -n "$cmd_missing" ]; then
	echo "checkdocs: packages missing a package doc comment:"
	{ echo "$missing"; echo "$cmd_missing"; } | sed '/^$/d; s/^/  /'
	exit 1
fi

# Exported-identifier coverage for the public surfaces: the facade, the
# serving layer, and the experiment table and envelope layer.
go run ./scripts/checkexported . internal/serve internal/bench

# Dead exports: every exported identifier under internal/ needs a non-test
# caller (perfbench counts) or an allowlist entry naming the test that
# uses it.
go run ./scripts/checkdead

echo "checkdocs: all packages and exported identifiers documented, no dead exports"
