#!/usr/bin/env bash
# Every function has a caller: lists the functions and methods the
# non-test files of module repro declare that none of the 14 binaries
# (cmd/, examples/, benchmark/) links, and fails unless each one is in
# .github/reach-allow.txt with a reason, and every entry there is still
# such a name. Run from the repository root: bash .github/reach.sh
#
# Recipe: build every binary without inlining (-gcflags=all=-l, so a
# function that is called is also a symbol), take the union of their
# `go tool nm` text symbols under package repro, and subtract it from
# the `^func` lines of the gofmt'd non-test files `go list` names.
# Receivers and generic brackets are stripped on both sides: a value
# method may be linked only as its pointer wrapper.
set -euo pipefail

allow=.github/reach-allow.txt
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
export GOTOOLCHAIN=local LC_ALL=C

# The binaries get a directory of their own: the lists below are
# written into "$out", and the glob must not see them.
mkdir "$out/bin"
go build -gcflags=all=-l -o "$out/bin/" ./cmd/... ./examples/...
go build -C benchmark -gcflags=all=-l -o "$out/bin/benchmark" .

# normalize: pkg.(*T[K]).M → pkg.T.M, pkg.F[go.shape.int] → pkg.F, and
# the module prefix dropped (the root package stays "repro").
normalize() {
	sed -E -e ':b' -e 's/\[[^][]*\]//g' -e 'tb' \
		-e 's/\(\*([^)]*)\)/\1/g' -e 's#^repro/##'
}

for bin in "$out"/bin/*; do
	go tool nm "$bin" | awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }'
done | grep -E '^repro[./]' | normalize | sort -u >"$out/reached"

go list -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
	while read -r pkg file; do
		gofmt "$file" | awk -v pkg="$pkg" '
			/^func / {
				s = substr($0, 6)
				recv = ""
				if (s ~ /^\(/) { # method: (r *T[K]) Name(...
					r = substr(s, 2, index(s, ")") - 2)
					gsub(/\[[^]]*\]/, "", r)
					n = split(r, f, " ")
					recv = f[n]
					sub(/^\*/, "", recv)
					s = substr(s, index(s, ")") + 2)
				}
				match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(s, 1, RLENGTH)
				if (name == "init" || name == "_") next
				print pkg "." (recv == "" ? "" : recv ".") name
			}'
	done | normalize | sort -u >"$out/declared"

comm -23 "$out/declared" "$out/reached" >"$out/unreached"

bad=0
awk 'NF && $1 !~ /^#/ && $2 !~ /^(reference|test-support|facade)$/ { print "reach-allow.txt: bad reason on: " $0; bad = 1 } END { exit bad }' "$allow" >&2 || bad=1
awk 'NF && $1 !~ /^#/ { print $1 }' "$allow" | sort -u >"$out/allowed"

unlisted="$(comm -23 "$out/unreached" "$out/allowed")"
stale="$(comm -13 "$out/unreached" "$out/allowed")"
if [ -n "$unlisted" ]; then
	echo "declared but reached by no binary, and not in $allow (delete it, or list it as reference / test-support / facade):" >&2
	echo "$unlisted" >&2
	bad=1
fi
if [ -n "$stale" ]; then
	echo "stale entries in $allow (reached by a binary now, or no longer declared):" >&2
	echo "$stale" >&2
	bad=1
fi
echo "reach: $(wc -l <"$out/declared") declared, $(wc -l <"$out/unreached") unreached, $(wc -l <"$out/allowed") allowed" >&2
exit "$bad"
