"""Output files written and hashed in one pass.

Every file the CLI writes goes through ``write_hashed``: it encodes each
chunk of text as ASCII, writes it and feeds the same bytes to sha256, so
the digest that manifest.json records is that of the bytes as written
and no output is read back.  Writers hand it their text in pieces as
they make them (a line of a CSV file, a section of mesh.txt), so no large
file is held in memory whole.
"""

import hashlib


def write_hashed(path, chunks) -> str:
    """Write the text chunks to path in order; return the sha256 hex digest of the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode("ascii")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def table_lines(header, fmt, rows):
    """The header line, if header is not None, then one comma-separated
    line per row, every value printed as fmt % float(value)."""
    if header is not None:
        yield header + "\n"
    for row in rows:
        values = tuple(map(float, row))
        yield ",".join([fmt] * len(values)) % values + "\n"
