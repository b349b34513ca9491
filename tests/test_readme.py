"""The README's tables against the code they document."""

import re
from pathlib import Path

from modkv.policy import WARNING_CODES

README = Path(__file__).resolve().parent.parent / "README.md"


def table_codes(section: str) -> list[str]:
    """The first-column names of the one table under the README heading
    `section`, in order."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1]
    body = re.split(r"\n#{1,3} ", body, maxsplit=1)[0]
    return re.findall(r"^\| `([^`]+)` \|", body, flags=re.MULTILINE)


def test_the_reports_table_names_every_warning_code_and_no_other():
    codes = table_codes("### Reports")
    assert sorted(codes) == sorted(WARNING_CODES)
    assert len(codes) == len(set(codes))
