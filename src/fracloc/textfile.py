"""Output files written and hashed in one pass.

Every file the CLI writes goes through ``write_hashed``: it joins the
chunks of text into blocks of about BLOCK_CHARS characters, encodes each
block as ASCII, writes it and feeds the same bytes to sha256, so the
digest that manifest.json records is that of the bytes as written and no
output is read back.  Writers hand it their text in pieces as they make
them (a line of a CSV file, a section of mesh.txt), so no large file is
held in memory whole.
"""

import hashlib

# one encode, write and hash per block instead of per chunk (a CSV line
# of a 129-level field is about 2.6 KB); 256 KiB blocks wrote no faster
# and raised the peak RSS of a forward run by about 1 MB
BLOCK_CHARS = 2**16


def _blocks(chunks):
    """The chunks joined in order into blocks of at least BLOCK_CHARS
    characters, the last one shorter (empty for no chunks)."""
    parts, size = [], 0
    for chunk in chunks:
        parts.append(chunk)
        size += len(chunk)
        if size >= BLOCK_CHARS:
            yield "".join(parts)
            parts, size = [], 0
    yield "".join(parts)


def write_hashed(path, chunks) -> str:
    """Write the text chunks to path in order; return the sha256 hex digest of the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in _blocks(chunks):
            data = block.encode("ascii")
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
