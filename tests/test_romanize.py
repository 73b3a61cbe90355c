import pytest

from udmorph.romanize import romanize


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
    assert romanize(hangul) == expected


def test_compat_vowel_alone():
    assert romanize("ㅏ") == "a"


def test_compat_jamo_as_coda():
    assert romanize("ㄴ데") == "nde"
    assert romanize("ㄹ수록") == "lsurok"


def test_non_hangul_passthrough():
    assert romanize("x고!") == "xgo!"
