"""The romanized transcription of a conjunctive ending, case by case."""

import pytest

from udmorph.conllu import Morpheme
from udmorph.rules import _ending_transcription


def _transcribe(surface):
    """The `Case` value a word-final ending `surface` gets, "" for none."""
    emission = _ending_transcription((Morpheme(surface, "EC"),))
    return emission[0][1] if emission else ""


@pytest.mark.parametrize(
    "hangul,expected",
    [
        ("서", "seo"),
        ("고", "go"),
        ("면", "myeon"),
        ("으면", "eumyeon"),
        ("야", "ya"),
        ("며", "myeo"),
        ("도록", "dorok"),
        ("지만", "jiman"),
        ("다가", "daga"),
        ("는데", "neunde"),
        ("거든", "geodeun"),
    ],
)
def test_full_syllables(hangul, expected):
    assert _transcribe(hangul) == expected


def test_compat_vowel_alone():
    assert _transcribe("ㅏ") == "a"


@pytest.mark.parametrize("jamo,expected", [("ㄲ", "kk"), ("ㄸ", "tt"), ("ㅃ", "pp"), ("ㅆ", "ss"), ("ㅉ", "jj")])
def test_compat_double_consonant_alone(jamo, expected):
    assert _transcribe(jamo) == expected


def test_compat_jamo_as_coda():
    assert _transcribe("ㄴ데") == "nde"
    assert _transcribe("ㄹ수록") == "lsurok"


def test_non_hangul_passthrough():
    # ASCII letters and digits pass through; what a FEATS value cannot hold is dropped
    assert _transcribe("x고!") == "xgo"
