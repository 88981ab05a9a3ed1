#!/usr/bin/env bash
# Asserts a tool's --help documents every flag its flag tables accept.
#
# Usage: check_cli_help.sh <path-to-tool> <path-to-tools/tool.cpp>
#
# The accepted-flag list is extracted from the tool source: the names of
# its qre::flags::Flag rows (`{"--x", ...`). The generated help prints every
# row of the tool's main table; the text written around it must still name
# the flags of any other table (qre_cli's store subcommand).
set -euo pipefail

cli=$1
src=$2

help_text=$("$cli" --help)

flags=$(grep -oE '\{"--?[A-Za-z][A-Za-z-]*",' "$src" \
          | grep -oE -- '--?[A-Za-z][A-Za-z-]*' | sort -u)
if [ -z "$flags" ]; then
  echo "error: extracted no flags from $src; did the flag table change shape?" >&2
  exit 1
fi

status=0
while IFS= read -r flag; do
  if ! grep -qF -- "$flag" <<<"$help_text"; then
    echo "FAIL: accepted flag '$flag' is missing from --help" >&2
    status=1
  fi
done <<<"$flags"

count=$(wc -w <<<"$flags")
if [ "$status" -eq 0 ]; then
  echo "ok: all $count accepted flags are documented in --help"
fi
exit "$status"
