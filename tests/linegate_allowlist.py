"""Lines of `src/ruta` that tier-1 may leave unrun, for `tests/linegate.py`.

Only a raising argument check belongs here: a `raise` line that rejects
an input no test can build, or one kept as a guard although no input can
reach it.  A behaviour line that tier-1 does not run gets a test, or it
is deleted; a safety check is never deleted to get past the gate.

To add an entry, key it by the file's name under `src/ruta`, the
function's qualified name (`co_qualname`) and the line's text with
leading and trailing blanks stripped, exactly as the gate prints an unrun
line, and give the reason the line cannot or need not run.  Keys hold no
line numbers, so edits elsewhere in a file do not move them.  The gate
fails on an entry whose line runs or no longer exists, on an entry that is
not a `raise` line or has no reason, and on more than MAX_ENTRIES entries.
"""

MAX_ENTRIES = 20

ALLOWED: dict[tuple[str, str, str], str] = {
    ("srou.py", "encode_oam",
     'raise InvariantViolation(f"OAM message too long ({total} octets)")'):
        "no OAM message reaches 255 octets: the longest, a Linkstate message "
        "with a 96-bit flow id, is 58; the check guards the one-octet length",
}
