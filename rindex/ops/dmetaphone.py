"""Double Metaphone phonetic encoder + topterms op.

Reference semantics: `lucene/analysis/phonetic/src/java/org/apache/lucene/
analysis/phonetic/DoubleMetaphoneFilter.java` (the PhoneticFilterFactory's
DEFAULT encoder) — each token yields a primary code and, when the word is
phonetically ambiguous, a distinct alternate code; both are indexed.

The encoder below is re-implemented from the PUBLISHED algorithm (Lawrence
Philips, "The Double Metaphone Search Algorithm", C/C++ Users Journal
18(6), June 2000) — not ported from any codebase.  Codes are truncated to
4 symbols (the published default).  Rows-only op: the ~90-branch rule
table is not SQL-expressible; correctness is pinned by golden vectors in
tests/test_analysis_phonetic.py (the classic-Metaphone test pattern).
"""

from __future__ import annotations

import re

from rindex.ops.analysis_ext import _phonetic_topterms

QUERIES: dict = {}
ORACLE: dict = {}

_VOWELS = frozenset("AEIOUY")
_DM_MAX = 4

# words of Slavo-Germanic origin take different W/WITZ treatment
_SLAVO = re.compile(r"W|K|CZ|WITZ")


def _sa(s: str, start: int, *pats: str) -> bool:
    """StringAt: does any pattern occur at `start` in s?"""
    if start < 0:
        return False
    return any(s.startswith(p, start) for p in pats)


def double_metaphone(token: str) -> tuple[str, str]:
    """(primary, alternate) Double Metaphone codes, each <= 4 symbols;
    alternate == primary when the word is unambiguous."""
    s = "".join(c for c in token.upper() if c.isalpha())
    n = len(s)
    if n == 0:
        return "", ""
    slavo = bool(_SLAVO.search(s))
    pri: list[str] = []
    alt: list[str] = []

    def add(p: str, a: str | None = None):
        pri.append(p)
        alt.append(p if a is None else a)

    i = 0
    # initial silent letters: GN, KN, PN, WR, PS
    if _sa(s, 0, "GN", "KN", "PN", "WR", "PS"):
        i = 1
    # initial X is pronounced Z (e.g. Xavier) -> S
    if s[0] == "X":
        add("S")
        i = 1
    while i < n and (len(pri) < _DM_MAX or len(alt) < _DM_MAX):
        c = s[i]
        if c in "AEIOUY":
            if i == 0:
                add("A")
            i += 1
        elif c == "B":
            add("P")
            i += 2 if _sa(s, i + 1, "B") else 1
        elif c == "\xc7":  # never reached (isalpha-stripped to C range)
            add("S")
            i += 1
        elif c == "C":
            # various Germanic: -ACH- with special exceptions
            if (i > 1 and s[i - 2] not in _VOWELS and _sa(s, i - 1, "ACH")
                    and (not _sa(s, i + 2, "I"))
                    and (not _sa(s, i + 2, "E")
                         or _sa(s, i - 2, "BACHER", "MACHER"))):
                add("K")
                i += 2
            elif i == 0 and _sa(s, 0, "CAESAR"):
                add("S")
                i += 2
            elif _sa(s, i, "CHIA"):  # italian chianti
                add("K")
                i += 2
            elif _sa(s, i, "CH"):
                if i > 0 and _sa(s, i, "CHAE"):  # michael
                    add("K", "X")
                    i += 2
                elif (i == 0
                      and (_sa(s, i + 1, "HARAC", "HARIS")
                           or _sa(s, i + 1, "HOR", "HYM", "HIA", "HEM"))
                      and not _sa(s, 0, "CHORE")):
                    # greek roots: chemistry, chorus
                    add("K")
                    i += 2
                elif ((_sa(s, 0, "VAN ", "VON ") or _sa(s, 0, "SCH"))
                      or _sa(s, i - 2, "ORCHES", "ARCHIT", "ORCHID")
                      or _sa(s, i + 2, "T", "S")
                      or ((i == 0 or _sa(s, i - 1, "A", "O", "U", "E"))
                          and _sa(s, i + 2, "L", "R", "N", "M", "B", "H",
                                  "F", "V", "W", " "))):
                    # germanic / greek / 'architect' but not 'arch'
                    add("K")
                    i += 2
                else:
                    if i > 0:
                        if _sa(s, 0, "MC"):
                            add("K")
                        else:
                            add("X", "K")
                    else:
                        add("X")
                    i += 2
            elif _sa(s, i, "CZ") and not _sa(s, i - 2, "WICZ"):
                add("S", "X")  # czerny
                i += 2
            elif _sa(s, i + 1, "CIA"):  # focaccia
                add("X")
                i += 3
            elif _sa(s, i, "CC") and not (i == 1 and s[0] == "M"):
                # double C, but not McClellan
                if _sa(s, i + 2, "I", "E", "H") and not _sa(s, i + 2, "HU"):
                    if ((i == 1 and s[0] == "A")
                            or _sa(s, i - 1, "UCCEE", "UCCES")):
                        add("K")
                        add("S")  # accident, accede, succeed
                    else:
                        add("X")  # bacci, bertucci
                    i += 3
                else:
                    add("K")  # pierce's rule
                    i += 2
            elif _sa(s, i, "CK", "CG", "CQ"):
                add("K")
                i += 2
            elif _sa(s, i, "CI", "CE", "CY"):
                if _sa(s, i, "CIO", "CIE", "CIA"):
                    add("S", "X")
                else:
                    add("S")
                i += 2
            else:
                add("K")
                if _sa(s, i + 1, " C", " Q", " G"):
                    i += 3  # mac caffrey, mac gregor
                elif (_sa(s, i + 1, "C", "K", "Q")
                      and not _sa(s, i + 1, "CE", "CI")):
                    i += 2
                else:
                    i += 1
        elif c == "D":
            if _sa(s, i, "DG"):
                if _sa(s, i + 2, "I", "E", "Y"):
                    add("J")  # edge
                    i += 3
                else:
                    add("T")
                    add("K")  # edgar
                    i += 2
            elif _sa(s, i, "DT", "DD"):
                add("T")
                i += 2
            else:
                add("T")
                i += 1
        elif c == "F":
            add("F")
            i += 2 if _sa(s, i + 1, "F") else 1
        elif c == "G":
            if _sa(s, i + 1, "H"):
                if i > 0 and s[i - 1] not in _VOWELS:
                    add("K")
                    i += 2
                elif i == 0:
                    if _sa(s, i + 2, "I"):
                        add("J")  # ghislane
                    else:
                        add("K")  # ghoti
                    i += 2
                elif ((i > 1 and _sa(s, i - 2, "B", "H", "D"))
                      or (i > 2 and _sa(s, i - 3, "B", "H", "D"))
                      or (i > 3 and _sa(s, i - 4, "B", "H"))):
                    i += 2  # hugh, exhaust: silent
                else:
                    if (i > 2 and _sa(s, i - 1, "U")
                            and _sa(s, i - 3, "C", "G", "L", "R", "T")):
                        add("F")  # laugh, cough
                    elif i > 0 and s[i - 1] != "I":
                        add("K")
                    i += 2
            elif _sa(s, i + 1, "N"):
                if i == 1 and s[0] in _VOWELS and not slavo:
                    add("KN", "N")
                elif (not _sa(s, i + 2, "EY") and s[i + 1] != "Y"
                      and not slavo):
                    add("N", "KN")
                else:
                    add("KN")
                i += 2
            elif _sa(s, i + 1, "LI") and not slavo:
                add("KL", "L")  # tagliaro
                i += 2
            elif (i == 0
                  and (s[i + 1:i + 2] == "Y"
                       or _sa(s, i + 1, "ES", "EP", "EB", "EL", "EY", "IB",
                              "IL", "IN", "IE", "EI", "ER"))):
                add("K", "J")  # ges-, gep- etc.
                i += 2
            elif ((_sa(s, i + 1, "ER") or s[i + 1:i + 2] == "Y")
                  and not _sa(s, 0, "DANGER", "RANGER", "MANGER")
                  and not _sa(s, i - 1, "E", "I")
                  and not _sa(s, i - 1, "RGY", "OGY")):
                add("K", "J")  # -ger-, -gy-
                i += 2
            elif (_sa(s, i + 1, "E", "I", "Y")
                  or _sa(s, i - 1, "AGGI", "OGGI")):
                if (_sa(s, 0, "VAN ", "VON ") or _sa(s, 0, "SCH")
                        or _sa(s, i + 1, "ET")):
                    add("K")  # obvious germanic
                elif _sa(s, i + 1, "IER "):
                    add("J")
                else:
                    add("J", "K")
                i += 2
            else:
                add("K")
                i += 2 if _sa(s, i + 1, "G") else 1
        elif c == "H":
            # keep only if first & before vowel, or between two vowels
            if ((i == 0 or s[i - 1] in _VOWELS)
                    and s[i + 1:i + 2] and s[i + 1] in _VOWELS):
                add("H")
                i += 2
            else:
                i += 1
        elif c == "J":
            if _sa(s, i, "JOSE") or _sa(s, 0, "SAN "):
                # obvious spanish: jose, san jacinto
                if ((i == 0 and s[i + 4:i + 5] == " ") or n == 4
                        or _sa(s, 0, "SAN ")):
                    add("H")
                else:
                    add("J", "H")
                i += 1
            else:
                if i == 0 and not _sa(s, i, "JOSE"):
                    add("J", "A")  # Yankelovich/Jankelowicz
                elif (i > 0 and s[i - 1] in _VOWELS and not slavo
                      and (s[i + 1:i + 2] in ("A", "O"))):
                    add("J", "H")
                elif i == n - 1:
                    add("J", "")
                elif (not _sa(s, i + 1, "L", "T", "K", "S", "N", "M", "B",
                              "Z")
                      and not _sa(s, i - 1, "S", "K", "L")):
                    add("J")
                i += 2 if _sa(s, i + 1, "J") else 1
        elif c == "K":
            add("K")
            i += 2 if _sa(s, i + 1, "K") else 1
        elif c == "L":
            if _sa(s, i + 1, "L"):
                # spanish: -illo-, -illa-, -alle-
                if ((i == n - 3 and _sa(s, i - 1, "ILLO", "ILLA", "ALLE"))
                        or ((_sa(s, n - 2, "AS", "OS")
                             or _sa(s, n - 1, "A", "O"))
                            and _sa(s, i - 1, "ALLE"))):
                    add("L", "")
                    i += 2
                    continue
                add("L")
                i += 2
            else:
                add("L")
                i += 1
        elif c == "M":
            add("M")
            if ((_sa(s, i - 1, "UMB")
                 and (i + 1 == n - 1 or _sa(s, i + 2, "ER")))
                    or _sa(s, i + 1, "M")):
                i += 2  # dumb, thumb
            else:
                i += 1
        elif c == "N":
            add("N")
            i += 2 if _sa(s, i + 1, "N") else 1
        elif c == "P":
            if _sa(s, i + 1, "H"):
                add("F")
                i += 2
            else:
                add("P")
                i += 2 if _sa(s, i + 1, "P", "B") else 1
        elif c == "Q":
            add("K")
            i += 2 if _sa(s, i + 1, "Q") else 1
        elif c == "R":
            # french: rogier, but not hochmeier
            if (i == n - 1 and not slavo and _sa(s, i - 2, "IE")
                    and not _sa(s, i - 4, "ME", "MA")):
                add("", "R")
            else:
                add("R")
            i += 2 if _sa(s, i + 1, "R") else 1
        elif c == "S":
            if _sa(s, i - 1, "ISL", "YSL"):
                i += 1  # island, isle: silent
            elif i == 0 and _sa(s, i, "SUGAR"):
                add("X", "S")
                i += 1
            elif _sa(s, i, "SH"):
                if _sa(s, i + 1, "HEIM", "HOEK", "HOLM", "HOLZ"):
                    add("S")  # germanic
                else:
                    add("X")
                i += 2
            elif _sa(s, i, "SIO", "SIA") or _sa(s, i, "SIAN"):
                add("S" if slavo else "S", None if slavo else "X")
                i += 3
            elif ((i == 0 and _sa(s, i + 1, "M", "N", "L", "W"))
                  or _sa(s, i + 1, "Z")):
                add("S", "X")  # german/anglicisation: smith -> XMT alt
                i += 2 if _sa(s, i + 1, "Z") else 1
            elif _sa(s, i, "SC"):
                if s[i + 2:i + 3] == "H":
                    if _sa(s, i + 3, "OO", "ER", "EN", "UY", "ED", "EM"):
                        if _sa(s, i + 3, "ER", "EN"):
                            add("X", "SK")  # schermerhorn, schenker
                        else:
                            add("SK")  # school, schooner
                    else:
                        if (i == 0 and s[3:4] not in _VOWELS
                                and s[3:4] != "W"):
                            add("X", "S")
                        else:
                            add("X")
                    i += 3
                elif _sa(s, i + 2, "I", "E", "Y"):
                    add("S")
                    i += 3
                else:
                    add("SK")
                    i += 3
            elif (i == n - 1 and _sa(s, i - 2, "AIS", "OIS")):
                add("", "S")  # french: resnais, artois
                i += 1
            else:
                add("S")
                i += 2 if _sa(s, i + 1, "S", "Z") else 1
        elif c == "T":
            if _sa(s, i, "TION", "TIA", "TCH"):
                if _sa(s, i, "TCH"):
                    add("X")
                    i += 3
                else:
                    add("X")
                    i += 3
            elif _sa(s, i, "TH") or _sa(s, i, "TTH"):
                if (_sa(s, i + 2, "OM", "AM")
                        or _sa(s, 0, "VAN ", "VON ") or _sa(s, 0, "SCH")):
                    add("T")  # thomas, thames, germanic
                else:
                    add("0", "T")
                i += 2
            else:
                add("T")
                i += 2 if _sa(s, i + 1, "T", "D") else 1
        elif c == "V":
            add("F")
            i += 2 if _sa(s, i + 1, "V") else 1
        elif c == "W":
            if _sa(s, i, "WR"):
                add("R")
                i += 2
            else:
                if (i == 0
                        and (s[i + 1:i + 2] in _VOWELS
                             or _sa(s, i, "WH"))):
                    if s[i + 1:i + 2] in _VOWELS:
                        add("A", "F")  # wasserman
                    else:
                        add("A")  # uhh... wh-
                if ((i == n - 1 and i > 0 and s[i - 1] in _VOWELS)
                        or _sa(s, i - 1, "EWSKI", "EWSKY", "OWSKI", "OWSKY")
                        or _sa(s, 0, "SCH")):
                    add("", "F")  # arnow, filipowski
                    i += 1
                elif _sa(s, i, "WICZ", "WITZ"):
                    add("TS", "FX")  # polish
                    i += 4
                else:
                    i += 1
        elif c == "X":
            # french: breaux — silent final X
            if not (i == n - 1
                    and (_sa(s, i - 3, "IAU", "EAU")
                         or _sa(s, i - 2, "AU", "OU"))):
                add("KS")
            i += 2 if _sa(s, i + 1, "C", "X") else 1
        elif c == "Z":
            if s[i + 1:i + 2] == "H":
                add("J")  # chinese pinyin: zhao
                i += 2
            else:
                if (_sa(s, i + 1, "ZO", "ZI", "ZA")
                        or (slavo and i > 0 and s[i - 1] != "T")):
                    add("S", "TS")
                else:
                    add("S")
                i += 2 if _sa(s, i + 1, "Z") else 1
        else:
            i += 1
    p = "".join(pri)[:_DM_MAX]
    a = "".join(alt)[:_DM_MAX]
    return p, a


def q_dmetaphone_topterms_documents(sf_dir: str):
    """Double Metaphone bucket counts: top 20 primary codes by collection
    frequency, plus how often the alternate differs (the ambiguity the
    filter indexes both codes for).  Memoized per distinct token per
    worker like the classic-Metaphone/soundex ops."""
    return _phonetic_topterms(sf_dir, lambda t: double_metaphone(t)[0] or None)


QUERIES["dmetaphone_topterms_documents"] = q_dmetaphone_topterms_documents
# rows-only: the ~90-branch rule table is not SQL-expressible; pinned by
# golden vectors in tests/test_analysis_phonetic.py.
