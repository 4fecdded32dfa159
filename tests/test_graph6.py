"""graph6 codec against a bit-by-bit reference, and its error messages."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralcert import graphs
from spectralcert.errors import Graph6ParseError
from spectralcert.graphs import build_graph, from_graph6, to_graph6


# the format, read off its definition one bit at a time: a header of n + 63,
# or 126 and three 6-bit digits of n; then x(0,1), x(0,2), x(1,2), x(0,3), ...
# (the upper triangle column by column), zero-padded to a multiple of six
# bits and written six bits a byte, most significant first, plus 63

def reference_encode(n, edges):
    if n <= 62:
        out = [n + 63]
    else:
        out = [126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)]
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = 2 * value + bit
        out.append(value + 63)
    return bytes(out)


def reference_decode(line):
    if line[0] == 126:
        n = (line[1] - 63) * 4096 + (line[2] - 63) * 64 + (line[3] - 63)
        payload = line[4:]
    else:
        n, payload = line[0] - 63, line[1:]
    bits = []
    for byte in payload:
        for shift in range(5, -1, -1):
            bits.append(byte - 63 >> shift & 1)
    masks = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            k += 1
    return tuple(masks)


def assert_codec_matches_reference(n, edges):
    line = reference_encode(n, edges)
    g = build_graph(n, edges)
    assert to_graph6(g) == line
    assert from_graph6(line).neighbor_masks == reference_decode(line) == g.neighbor_masks


def test_codec_matches_reference_on_every_small_payload():
    count = 0
    for n in range(1, 6):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for code in range(1 << len(pairs)):
            assert_codec_matches_reference(
                n, {pair for k, pair in enumerate(pairs) if code >> k & 1})
            count += 1
    assert count == 1099


@pytest.mark.parametrize("n", [62, 63, 64, 65, 129])
def test_codec_matches_reference_across_header_and_word_widths(n):
    rng = random.Random(1000 + n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert_codec_matches_reference(n, {pair for pair in pairs if rng.random() < p})


def parse_error(line):
    with pytest.raises(Graph6ParseError) as info:
        from_graph6(line)
    return info.value.args[0], info.value.offset


# messages and offsets as the per-byte decoder reported them
PINNED_ERRORS = [
    ("", "empty graph6 string", 0),
    (b">>graph6<<", "empty graph6 string", 0),
    ("B", "expected 1 payload bytes for n=3, got 0", 1),
    ("A", "expected 1 payload bytes for n=2, got 0", 1),
    ("A_~", "expected 1 payload bytes for n=2, got 2", 2),
    ("A_ ", "expected 1 payload bytes for n=2, got 2", 2),
    (b"A_\x00", "expected 1 payload bytes for n=2, got 2", 2),
    ("@?", "expected 0 payload bytes for n=1, got 1", 1),
    ("F??????", "expected 4 payload bytes for n=7, got 6", 5),
    ("~?@?" + "?" * 347, "expected 336 payload bytes for n=64, got 347", 340),
    ("~", "truncated extended header", 1),
    ("~?", "truncated extended header", 2),
    ("~??", "truncated extended header", 3),
    ("~~", "8-byte length form is not supported", 1),
    ("~~??", "8-byte length form is not supported", 1),
    ("?", "graphs must have at least one vertex", 0),
    ("~???", "graphs must have at least one vertex", 0),
    (b" ", "header byte 32 outside graph6 range", 0),
    (" A_", "header byte 32 outside graph6 range", 0),
    (b"~ ??", "header byte 32 outside graph6 range", 1),
    (b"~?\x7f?", "header byte 127 outside graph6 range", 2),
    (b"C\xc8", "payload byte 200 outside graph6 range", 1),
    (b"A\x7f", "payload byte 127 outside graph6 range", 1),
    (b"F?\x20?\xc8", "payload byte 32 outside graph6 range", 2),
    ("Cé", "non-ASCII character", 1),
    ("C~\udcff", "non-ASCII character", 2),
    ("é", "non-ASCII character", 0),
    ("Ao", "nonzero padding bits", 1),
    ("A`", "nonzero padding bits", 1),
    (b">>graph6<<Ao", "nonzero padding bits", 1),
    ("Bx", "nonzero padding bits", 1),
    ("F????", None, None),
    ("~?@@" + "?" * 346 + "@", "nonzero padding bits", 350),
    ("~?@@" + "?" * 346 + "B", "nonzero padding bits", 350),
]


@pytest.mark.parametrize("line, message, offset", PINNED_ERRORS,
                         ids=[f"case{k}" for k in range(len(PINNED_ERRORS))])
def test_graph6_errors_are_pinned(line, message, offset):
    if message is None:
        from_graph6(line)
    else:
        assert parse_error(line) == (message, offset)


def test_out_of_range_payload_byte_is_reported_at_every_position():
    rng = random.Random(13)
    for n in (13, 64):
        line = to_graph6(build_graph(n, [(i, j) for j in range(n) for i in range(j)
                                         if rng.random() < 0.5]))
        start = len(line) - (n * (n - 1) // 2 + 5) // 6
        for bad in (0x20, 0x7F, 0xC8):
            for i in range(start, len(line)):
                expected = (f"payload byte {bad} outside graph6 range", i)
                assert parse_error(line[:i] + bytes([bad]) + line[i + 1:]) == expected
                if bad < 128:
                    text = line.decode()
                    assert parse_error(text[:i] + chr(bad) + text[i + 1:]) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 7, 65])
def test_each_padding_bit_is_checked(n):
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    line = to_graph6(build_graph(n, []))
    assert line[-1] == 63
    for bit in range(6):
        corrupt = line[:-1] + bytes([63 + (1 << bit)])
        if bit < 6 * nbytes - nbits:
            assert parse_error(corrupt) == ("nonzero padding bits", len(line) - 1)
        else:
            assert from_graph6(corrupt).m == 1


# ---------------------------------------------------------------------------
# the list form


def random_line(n, seed, p=0.5):
    rng = random.Random(seed)
    return to_graph6(build_graph(n, [(i, j) for j in range(n) for i in range(j)
                                     if rng.random() < p]))


def as_form(line, form):
    return {"str": line.decode(), "bytes": line, "prefixed": ">>graph6<<" + line.decode(),
            "prefixed bytes": b">>graph6<<" + line}[form]


# both header forms, and the orders at the edges of a byte and of a word
EDGE_ORDERS = [1, 2, 8, 9, 16, 17, 32, 33, 62, 63, 64, 65]


@st.composite
def graph6_lists(draw):
    specs = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGE_ORDERS), st.integers(1, 70)),
        st.integers(0, 2**32), st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        st.sampled_from(["str", "str", "str", "bytes", "prefixed", "prefixed bytes"])),
        max_size=40))
    return draw(st.permutations([as_form(random_line(n, seed, p), form)
                                 for n, seed, p, form in specs]))


@settings(max_examples=80, deadline=None)
@given(graph6_lists(), st.sampled_from([None, 1, 100]))
def test_list_decode_equals_the_line_by_line_decode(lines, entries):
    with pytest.MonkeyPatch.context() as patch:
        if entries is not None:  # blocks of one graph, or of a few small ones
            patch.setattr(graphs, "DECODE_ENTRIES", entries)
        assert from_graph6(lines) == [from_graph6(line) for line in lines]


def test_list_decode_of_the_empty_list():
    assert from_graph6([]) == []


def scalar_calls(monkeypatch, lines):
    """The list decode of `lines`, and the lines it sent one at a time to
    the scalar path."""
    calls = []
    decode = graphs.from_graph6

    def counted(text):
        if not isinstance(text, list):
            calls.append(text)
        return decode(text)

    monkeypatch.setattr(graphs, "from_graph6", counted)
    return decode(lines), calls


def test_list_decode_spans_several_blocks_without_the_scalar_path(monkeypatch):
    lines = [random_line(62, seed).decode() for seed in range(700)]
    lines += [random_line(9, seed, 0.3).decode() for seed in range(300)]
    random.Random(4).shuffle(lines)
    assert 700 > 2 * (graphs.DECODE_ENTRIES // 62**2)  # three blocks of order 62 at least
    decoded, calls = scalar_calls(monkeypatch, lines)
    assert calls == []
    assert [g.neighbor_masks for g in decoded] == [reference_decode(line.encode())
                                                   for line in lines]


def test_only_lines_the_array_tests_refuse_take_the_scalar_path(monkeypatch):
    short = [random_line(n, n).decode() for n in range(1, 63)]
    scalar = [random_line(63, 1).decode(), random_line(70, 2).decode(),
              ">>graph6<<" + short[4], short[5].encode(), short[6] + "\n"]
    lines = short + scalar
    random.Random(8).shuffle(lines)
    want = [from_graph6(line) for line in lines]
    assert scalar_calls(monkeypatch, lines) == (want, [line for line in lines if line in scalar])


def check_list_error(lines, index, line):
    """from_graph6(lines) raises what decoding `line`, lines[index], alone
    raises, with that index, and the error pickles."""
    assert lines[index] == line
    with pytest.raises(Graph6ParseError) as alone:
        from_graph6(line)
    with pytest.raises(Graph6ParseError) as listed:
        from_graph6(lines)
    for exc in (listed.value, pickle.loads(pickle.dumps(listed.value))):
        assert type(exc) is Graph6ParseError
        assert (str(exc), exc.offset, exc.index) == (str(alone.value), alone.value.offset, index)


@pytest.mark.parametrize("line", [line for line, message, _ in PINNED_ERRORS if message],
                         ids=[f"case{k}" for k, case in enumerate(PINNED_ERRORS) if case[1]])
def test_list_decode_raises_the_error_of_the_lowest_defective_line(line):
    size = len(line)
    others = [random_line(n, n).decode() for n in (1, 2, 5, 9, 17, 33, 64)]
    others = [other for other in others if len(other) != size]
    # valid lines of the defect's own length, where there are any
    own = [random_line(n, seed).decode() for n in range(1, 63) for seed in (1, 2)
           if len(random_line(n, 0)) == size]
    later = "A" if size != 1 else "F??????"  # a defect of another length group
    for i in (0, 3, len(others)):
        before, after = others[:i], others[i:]
        check_list_error(before + [line] + own + after + [later], i, line)
        check_list_error(before + own + [line] + after + [later], i + len(own), line)
        check_list_error(before + own + [line, later] + after, i + len(own), line)


@pytest.mark.parametrize("line", [
    "~" + "?" * 326,  # '~' is no one-byte header, whatever the length
    "?", "??",  # order 0
    ">" + "?" * 5,  # a header byte below 63 wraps around
    "F???\x7f", "F??\x1f?",  # a payload byte outside 63..126
    "Ao", "Bx", "D?@",  # padding
])
def test_list_decode_refuses_what_the_line_decode_refuses(line):
    lines = [random_line(n, n).decode() for n in (3, 7, 40)]
    check_list_error(lines[:2] + [line] + lines[2:], 2, line)
