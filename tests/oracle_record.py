"""The JSON object of a solution record, built as a dict field by field:
the oracle of `relcat.cli._record_lines`, which writes each record's line
from texts rendered once per distinct code.  `json.dumps` of this dict,
with sorted keys and no spaces, is the line the writer must print."""

from __future__ import annotations


def _rows(code: int, n_src: int, n_dst: int) -> list[str]:
    """Matrix rows of the relation with this bit code, as 0/1 strings."""
    bits = format(code, f"0{n_src * n_dst}b")
    return [bits[i * n_src : (i + 1) * n_src] for i in range(n_dst)]


def record_json(record) -> dict:
    p, k, c = record.sizes
    out = {
        "sizes": list(record.sizes),
        "encrypt": _rows(record.encrypt_code, p * k, c),
        "decrypt": [_rows(code, k, p) for code in record.decrypt_codes],
        "pad": list(record.pad_mapping),
        "verdicts": dict(sorted(record.verdicts.items())),
    }
    if record.canonical is not None:
        ce, cds, cp = record.canonical
        out["canonical"] = {
            "encrypt_code": ce,
            "decrypt_codes": list(cds),
            "pad": list(cp),
        }
    return out
