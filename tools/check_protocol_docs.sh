#!/usr/bin/env sh
# Docs-consistency gate: every verb the daemon dispatches AND every
# stable error code it answers must be documented in docs/protocol.md.
#
# The sources of truth are the verb table in
# src/daemon/socket_server.cpp (entries `{"name", kOpen|kGated,
# &SocketServer::verb_...}`) and the code constants in
# src/daemon/error_codes.hpp; the doc must mention each name somewhere
# (section headers use the bare name, tables and prose use `backticks`).
# A verb named by two table entries also fails: each verb has exactly
# one handler.  Run from anywhere:
#
#   sh tools/check_protocol_docs.sh
#
# Exits non-zero listing the undocumented (or doubly dispatched)
# verbs/codes.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
server="$repo_root/src/daemon/socket_server.cpp"
codes="$repo_root/src/daemon/error_codes.hpp"
doc="$repo_root/docs/protocol.md"

[ -f "$server" ] || { echo "check_protocol_docs: missing $server" >&2; exit 2; }
[ -f "$codes" ] || { echo "check_protocol_docs: missing $codes" >&2; exit 2; }
[ -f "$doc" ] || { echo "check_protocol_docs: missing $doc" >&2; exit 2; }

entries=$(grep -oE '\{"[a-z_]+", [A-Za-z_]+, &SocketServer::' "$server" | sed 's/^{"\([a-z_]*\)".*/\1/')
[ -n "$entries" ] || { echo "check_protocol_docs: no verb table entries found in $server (pattern drift?)" >&2; exit 2; }

twice=$(printf '%s\n' "$entries" | sort | uniq -d)
if [ -n "$twice" ]; then
  echo "check_protocol_docs: verbs with more than one entry in the verb table of src/daemon/socket_server.cpp:" >&2
  for verb in $twice; do
    echo "  - $verb" >&2
  done
  echo "Give each verb exactly one handler." >&2
  exit 1
fi
verbs=$(printf '%s\n' "$entries" | sort)

missing=""
for verb in $verbs; do
  if ! grep -qw "$verb" "$doc"; then
    missing="$missing $verb"
  fi
done

count=$(printf '%s\n' "$verbs" | wc -l | tr -d ' ')
if [ -n "$missing" ]; then
  echo "check_protocol_docs: verbs in the verb table of src/daemon/socket_server.cpp but missing from docs/protocol.md:" >&2
  for verb in $missing; do
    echo "  - $verb" >&2
  done
  echo "Document them in docs/protocol.md (section 3, Verbs)." >&2
  exit 1
fi

# Error codes: every string literal defined in error_codes.hpp must
# appear in the doc's error-code table.
code_names=$(grep -oE '"[a-z_]+"' "$codes" | tr -d '"' | sort -u)
[ -n "$code_names" ] || { echo "check_protocol_docs: no codes found in $codes (pattern drift?)" >&2; exit 2; }

missing_codes=""
for code in $code_names; do
  if ! grep -qw "$code" "$doc"; then
    missing_codes="$missing_codes $code"
  fi
done

code_count=$(printf '%s\n' "$code_names" | wc -l | tr -d ' ')
if [ -n "$missing_codes" ]; then
  echo "check_protocol_docs: codes defined in src/daemon/error_codes.hpp but missing from docs/protocol.md:" >&2
  for code in $missing_codes; do
    echo "  - $code" >&2
  done
  echo "Document them in docs/protocol.md (Error codes)." >&2
  exit 1
fi

echo "check_protocol_docs: ok ($count verbs, $code_count error codes documented)"
