#!/bin/sh
# Assert that every module function the checked-in CPU profile
# (cmd/xeonchar/default.pgo) charges with at least 1% of its samples,
# flat, is in xeonlint's hot set. The profile is read offline with the
# toolchain's own `go tool pprof`; closure frames (".funcN", nested ".N",
# "-fm") are folded onto the function that declares them first, since
# the hot set names declared functions.
#
# A failure names each missing function. A new hot spot needs a
# //xeonlint:hot directive in its doc comment. After a hot function is
# renamed, regenerate the profile with `make profile` and copy cpu.pprof
# over cmd/xeonchar/default.pgo.
set -eu

cd "$(dirname "$0")/.."

profile=cmd/xeonchar/default.pgo
module="$(go list -m)"

# -nodefraction=0 lists every frame: by default pprof hides nodes under
# 0.5% of the total, which drops closure frames (runSolo's among them)
# before they can be folded. -unit=ns prints whole nanoseconds, and the
# total comes from pprof's "Showing nodes ... of <total> total" line.
top="$(go tool pprof -top -nodecount=0 -nodefraction=0 -unit=ns "$profile")" || {
    echo "pgo-freshness: go tool pprof cannot read $profile" >&2
    exit 1
}

want="$(printf '%s\n' "$top" | awk -v mod="$module" '
    $1 == "Showing" { total = $(NF - 1); sub(/ns$/, "", total); total += 0 }
    rows && NF >= 6 {
        v = $1; sub(/ns$/, "", v); v += 0
        name = $6
        sub(/-fm$/, "", name)
        while (name ~ /\.(func)?[0-9]+$/) sub(/\.(func)?[0-9]+$/, "", name)
        if (index(name, mod ".") == 1 || index(name, mod "/") == 1) flat[name] += v
    }
    $1 == "flat" && $2 == "flat%" { rows = 1 }
    END { for (n in flat) if (total > 0 && flat[n] >= 0.01 * total) print n }
' | sort)"
if [ -z "$want" ]; then
    echo "pgo-freshness: $profile names no module function at >=1% flat" >&2
    exit 1
fi

report="$(go run ./cmd/xeonlint -hot-report ./...)" || {
    echo "pgo-freshness: xeonlint -hot-report failed" >&2
    exit 1
}
have="$(printf '%s\n' "$report" | awk '{ print $1 }' | sort)"

missing="$({ printf '%s\n' "$have"; echo; printf '%s\n' "$want"; } |
    awk 'NF == 0 { w = 1; next } !w { have[$1] = 1; next } !($1 in have)')"
if [ -n "$missing" ]; then
    echo "pgo-freshness: functions at >=1% flat in $profile missing from the hot set:" >&2
    printf '%s\n' "$missing" | sed 's/^/  /' >&2
    echo "pgo-freshness: mark new hot spots //xeonlint:hot; after a rename, regenerate the profile with 'make profile'" >&2
    exit 1
fi

echo "pgo-freshness: ok ($(printf '%s\n' "$want" | wc -l | tr -d ' ') functions at >=1% flat, all in the hot set)"
