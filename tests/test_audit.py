"""The committed record ``configs/AUDIT.sha256`` is what ``tools/artifact_hashes.py`` prints."""

import subprocess
import sys
from pathlib import Path

from noisyflow.config import parse_config
from noisyflow.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def entries(listing):
    """The header line of an audit listing, and its {path: digest}."""
    header, *lines = listing.splitlines()
    return header, {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_audit_record_is_current():
    record = (ROOT / "configs" / "AUDIT.sha256").read_text()
    output = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_hashes.py")],
                            capture_output=True, text=True, check=True).stdout
    (header, now), (recorded_header, recorded) = entries(output), entries(record)
    if header == recorded_header:
        assert output == record
        return
    # on other versions the bits of SuperLU and numpy may move, but no exit code
    # may, nor a parse error's message, which holds no computed value
    unparsed = set()
    for path in (ROOT / "configs").glob("*.ini"):
        try:
            parse_config(path.read_text())
        except ConfigError:
            unparsed.add(path.stem)
    assert now.keys() == recorded.keys()
    kept = [path for path in recorded if path.endswith("/exit")
            or (path.endswith("/stderr") and path.split("/")[0] in unparsed)]
    assert {path: now[path] for path in kept} == {path: recorded[path] for path in kept}
