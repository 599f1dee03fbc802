import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmulrv import encoding, isa
from mmulrv.errors import (IllegalInstruction, NotMmul, RegisterOutOfRange,
                           WordsOutOfRange)

reg = st.integers(0, 15)


def test_known_encoding():
    assert encoding.encode_r4(10, 11, 12, 13, words=4) == 0x68C5B50B


def test_all_zero_fields():
    assert encoding.encode_r4(0, 0, 0, 0, words=1) == 0x0000000B


def test_words_out_of_range():
    with pytest.raises(WordsOutOfRange):
        encoding.encode_r4(1, 1, 1, 1, words=33)
    with pytest.raises(WordsOutOfRange):
        encoding.encode_r4(1, 1, 1, 1, words=0)


def test_register_out_of_range():
    with pytest.raises(RegisterOutOfRange):
        encoding.encode_r4(16, 0, 0, 0, words=1)


def test_known_decoding():
    assert encoding.decode_r4(0x68C5B50B) == {
        "rd": 10, "rs1": 11, "rs2": 12, "rs3": 13, "words": 4}


def test_decode_wrong_opcode():
    with pytest.raises(NotMmul):
        encoding.decode_r4(0x00000033)


def test_decode_rv32e_violation():
    # rs3 = x16 with the custom-0 opcode
    word = (16 << 27) | encoding.OPCODE_CUSTOM0
    with pytest.raises(RegisterOutOfRange):
        encoding.decode_r4(word)


@given(rd=reg, rs1=reg, rs2=reg, rs3=reg, words=st.integers(1, 32))
@settings(max_examples=300)
def test_round_trip(rd, rs1, rs2, rs3, words):
    word = encoding.encode_r4(rd, rs1, rs2, rs3, words)
    assert encoding.decode_r4(word) == {
        "rd": rd, "rs1": rs1, "rs2": rs2, "rs3": rs3, "words": words}


@pytest.mark.parametrize("fmt,xlen,bits,unit,max_bits", [
    ("I", 32, 15, "bits", 32768),
    ("R", 32, 10, "bits", 1024),
    ("R4", 32, 5, "words", 1024),
    ("R4", 64, 5, "words", 2048),
])
def test_capacity(fmt, xlen, bits, unit, max_bits):
    cap = encoding.capacity(fmt, xlen)
    assert cap.length_bits_available == bits
    assert cap.length_unit == unit
    assert cap.max_operand_bits == max_bits
    scale = 1 if unit == "bits" else xlen
    assert cap.max_operand_bits == (1 << cap.length_bits_available) * scale


def test_mmul_decodes_as_mmul_only():
    # the custom-0 opcode never collides with any standard encoding
    word = encoding.encode_r4(3, 4, 5, 6, 2)
    assert isa.decode(word).kind == "mmul"
    for standard in (0x00500093, 0x002081B3, 0x00812283, 0x00000073):
        assert isa.decode(standard).kind != "mmul"


@given(rd=reg, rs1=reg, rs2=reg, rs3=reg, words=st.integers(1, 32))
@settings(max_examples=200)
def test_isa_decode_recognizes_every_mmul(rd, rs1, rs2, rs3, words):
    d = isa.decode(encoding.encode_r4(rd, rs1, rs2, rs3, words))
    assert (d.kind, d.rd, d.rs1, d.rs2, d.rs3, d.words) == \
        ("mmul", rd, rs1, rs2, rs3, words)


def test_insn_directive_text():
    text = encoding.insn_directive(10, 11, 12, 13, 4)
    assert text == ".insn r4 0x0b, 3, 0, x10, x11, x12, x13"


def test_decode_rejects_non_mmul_custom0_register():
    word = encoding.encode_r4(0, 0, 0, 0, 1) | (0x1F << 27)  # rs3 = x31
    with pytest.raises(IllegalInstruction):
        isa.decode(word)
