"""String similarity measures.

Used by F2 (URLs), F3 (most frequent name) and F7 (name closest to the
search keyword).  All functions are pure and symmetric, returning values
in [0, 1] with 1.0 for identical strings.
"""

from __future__ import annotations


def levenshtein(left: str, right: str) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    This is the pipeline's hottest comparison (URL paths and domains for
    F2), so two exact optimizations apply — both provably
    distance-preserving, and checked against the reference dynamic
    program by ``tests/properties/test_string_properties.py``:

    * a shared prefix or suffix never participates in an optimal edit
      script under unit costs and is stripped first (URLs share schemes,
      domains and file extensions);
    * the remainder runs Myers' bit-parallel algorithm
      (:func:`_bitparallel_distance`) — O(n) big-integer column updates
      instead of the O(m·n) cell-by-cell table.
    """
    if left == right:
        return 0
    # Strip the common prefix and suffix; the distance is unchanged.
    limit = min(len(left), len(right))
    start = 0
    while start < limit and left[start] == right[start]:
        start += 1
    end_left, end_right = len(left), len(right)
    while end_left > start and end_right > start \
            and left[end_left - 1] == right[end_right - 1]:
        end_left -= 1
        end_right -= 1
    left = left[start:end_left]
    right = right[start:end_right]
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) > len(right):
        left, right = right, left
    return _bitparallel_distance(left, right)


def _bitparallel_distance(pattern: str, text: str) -> int:
    """Myers' bit-parallel Levenshtein distance (Hyyrö's formulation).

    Encodes one column of the classic DP table as two bit vectors
    (positive/negative deltas between adjacent cells) and advances a
    whole column per text character with word operations.  Python
    integers are arbitrary-width, so any pattern length works; all
    vectors are masked to ``len(pattern)`` bits to emulate a fixed word.

    Both arguments must be non-empty.  Exactly equivalent to the
    reference DP (:func:`_reference_distance`).
    """
    length = len(pattern)
    positions: dict[str, int] = {}
    bit = 1
    for char in pattern:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    mask = (1 << length) - 1
    high = 1 << (length - 1)
    vertical_positive = mask
    vertical_negative = 0
    score = length
    get_positions = positions.get
    for char in text:
        matches = get_positions(char, 0)
        diagonal_zero = ((((matches & vertical_positive) + vertical_positive)
                          & mask)
                         ^ vertical_positive) | matches | vertical_negative
        horizontal_positive = (
            vertical_negative | ~(diagonal_zero | vertical_positive)) & mask
        horizontal_negative = vertical_positive & diagonal_zero
        if horizontal_positive & high:
            score += 1
        elif horizontal_negative & high:
            score -= 1
        shifted_positive = ((horizontal_positive << 1) | 1) & mask
        shifted_negative = (horizontal_negative << 1) & mask
        vertical_positive = (
            shifted_negative | ~(diagonal_zero | shifted_positive)) & mask
        vertical_negative = shifted_positive & diagonal_zero
    return score


def _reference_distance(left: str, right: str) -> int:
    """The classic O(m·n) dynamic program — the spec the fast paths must
    match; kept for the property tests."""
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(left) + 1))
    for row, char_right in enumerate(right, start=1):
        current = [row]
        for col, char_left in enumerate(left, start=1):
            substitution = previous[col - 1] + (char_left != char_right)
            current.append(min(previous[col] + 1, current[col - 1] + 1,
                               substitution))
        previous = current
    return previous[-1]


def normalized_edit_similarity(left: str, right: str) -> float:
    """``1 − levenshtein / max_length``; 1.0 for two empty strings."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(left, right) / longest


def jaro(left: str, right: str) -> float:
    """Jaro similarity (match window ``max(m,n)//2 − 1``)."""
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0
    window = max(len_left, len_right) // 2 - 1
    window = max(window, 0)

    left_matches = [False] * len_left
    right_matches = [False] * len_right
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len_right)
        for j in range(start, end):
            if right_matches[j] or right[j] != char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i in range(len_left):
        if not left_matches[i]:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len_left
        + matches / len_right
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1,
                 max_prefix: int = 4) -> float:
    """Jaro–Winkler similarity: Jaro boosted by the common prefix.

    Args:
        prefix_scale: boost per shared prefix character (Winkler's 0.1).
        max_prefix: prefix length cap (Winkler's 4).
    """
    base = jaro(left, right)
    prefix = 0
    for char_left, char_right in zip(left, right):
        if char_left != char_right or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def name_similarity(left: str, right: str) -> float:
    """Similarity of two person-name surface forms.

    Compares case-insensitively with Jaro–Winkler, but first gives full
    credit when one form is a sub-form of the other (``"Cohen"`` vs
    ``"J. Cohen"`` vs ``"John Cohen"``), which plain string measures
    under-score.  Returns 0.0 when either side is empty or whitespace
    only (no extracted name — missing information).
    """
    if not left.strip() or not right.strip():
        return 0.0
    left_lower = left.lower()
    right_lower = right.lower()
    if left_lower == right_lower:
        return 1.0
    left_parts = _name_parts(left_lower)
    right_parts = _name_parts(right_lower)
    if left_parts["last"] == right_parts["last"]:
        first_left, first_right = left_parts["first"], right_parts["first"]
        if not first_left or not first_right:
            return 0.9  # bare surname vs fuller form: compatible
        if first_left == first_right:
            return 1.0
        if first_left[0] == first_right[0] and (
                len(first_left) == 1 or len(first_right) == 1):
            return 0.95  # initial matches the given name
        return 0.4  # same surname, conflicting given names
    return jaro_winkler(left_lower, right_lower)


def _name_parts(name: str) -> dict[str, str]:
    """Split a lowercased name surface into first/last components."""
    tokens = [token.rstrip(".") for token in name.split()]
    if len(tokens) == 1:
        return {"first": "", "last": tokens[0]}
    return {"first": tokens[0], "last": tokens[-1]}
