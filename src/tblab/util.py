"""Shared helpers: deterministic CSV formatting."""

def fmt_float(v) -> str:
    """Round-trip stable decimal form (byte-identical across runs)."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:     # False for inf and nan: written by repr
        return str(int(f))
    return repr(f)


def csv_table(header, rows) -> list:
    """CSV rows: the header, then the cells of each row, the one place a cell is
    formatted. None is an empty cell, a str is written as is, a tuple (a cube
    centre) as its entries joined by ';', anything else by fmt_float, so a
    flag reads 1 or 0."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, tuple):
            return ";".join(fmt_float(c) for c in v)
        return fmt_float(v)
    return [header] + [[cell(v) for v in row] for row in rows]
