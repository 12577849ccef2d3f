"""Symbolic memory: byte-addressed, copy-on-write, backed by a memory map.

Memory is organized in pages of symbolic bytes over a concrete backing
store (the loaded program image).  Forking a path shares pages until one
side writes (copy-on-write) — the design choice ablated in Table 5
(``cow=False`` deep-copies on fork instead).

Address *terms* are resolved to concrete addresses by the executor (which
owns the solver); this module works with concrete addresses and symbolic
*contents*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..smt import terms as T

__all__ = ["Region", "MemoryMap", "SymMemory", "PAGE_SIZE"]

PAGE_SIZE = 256


class Region:
    """One mapped address range."""

    def __init__(self, start: int, size: int, name: str = "region",
                 writable: bool = True, track_uninit: bool = False):
        self.start = start
        self.size = size
        self.name = name
        self.writable = writable
        # When set, reads of bytes never written (and not covered by the
        # initial image) are reported as uninitialized-read defects.
        self.track_uninit = track_uninit

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self):
        return "Region(%s: %#x..%#x)" % (self.name, self.start, self.end)


class MemoryMap:
    """The set of valid regions; anything outside is an OOB access."""

    def __init__(self, regions: Optional[List[Region]] = None):
        self.regions: List[Region] = list(regions or [])

    def add(self, region: Region) -> Region:
        self.regions.append(region)
        return region

    def region_for(self, addr: int) -> Optional[Region]:
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def is_mapped(self, addr: int) -> bool:
        return self.region_for(addr) is not None

    def membership_term(self, addr_term: T.Term) -> T.Term:
        """Boolean term: ``addr`` lies inside some mapped region."""
        width = addr_term.width
        clauses = []
        for region in self.regions:
            lo = T.uge(addr_term, T.bv(region.start, width))
            hi = T.ult(addr_term, T.bv(region.end, width))
            clauses.append(T.and_(lo, hi))
        return T.disjoin(clauses)


class SymMemory:
    """Copy-on-write paged symbolic memory.

    A byte is, in priority order: a symbolic page entry (written during
    execution), a concrete image byte, or zero.
    """

    def __init__(self, memory_map: MemoryMap, cow: bool = True):
        self.map = memory_map
        self.cow = cow
        self._image: Dict[int, int] = {}
        # (addr, size) -> the image bytes there; shared by every fork,
        # like the image (see concrete_window).
        self._windows: Dict[Tuple[int, int], bytes] = {}
        self._pages: Dict[int, Dict[int, T.Term]] = {}
        self._owned: set = set()

    # -- image loading -----------------------------------------------------------

    def load_image(self, base: int, data: bytes, name: str = "image",
                   writable: bool = True) -> Region:
        """Install concrete backing bytes and map the region."""
        for offset, byte in enumerate(data):
            self._image[base + offset] = byte
        self._windows.clear()
        return self.map.add(Region(base, len(data), name, writable))

    def image_byte(self, addr: int) -> Optional[int]:
        return self._image.get(addr)

    # -- forking ---------------------------------------------------------------------

    def fork(self) -> "SymMemory":
        child = SymMemory.__new__(SymMemory)
        child.map = self.map
        child.cow = self.cow
        child._image = self._image          # immutable after load
        child._windows = self._windows
        if self.cow:
            child._pages = dict(self._pages)
            child._owned = set()
            self._owned = set()             # parent's pages become shared too
        else:
            child._pages = {page: dict(content)
                            for page, content in self._pages.items()}
            child._owned = set(child._pages)
        return child

    # -- byte access --------------------------------------------------------------------

    def read_byte(self, addr: int) -> T.Term:
        page_index, offset = divmod(addr, PAGE_SIZE)
        page = self._pages.get(page_index)
        if page is not None:
            entry = page.get(offset)
            if entry is not None:
                return entry
        return T.bv(self._image.get(addr, 0), 8)

    def write_byte(self, addr: int, value: T.Term) -> None:
        if value.width != 8:
            raise T.WidthError("memory bytes are 8 bits, got %d" % value.width)
        page_index, offset = divmod(addr, PAGE_SIZE)
        page = self._pages.get(page_index)
        if page is None:
            page = {}
            self._pages[page_index] = page
            self._owned.add(page_index)
        elif page_index not in self._owned:
            page = dict(page)
            self._pages[page_index] = page
            self._owned.add(page_index)
        page[offset] = value

    def is_written(self, addr: int) -> bool:
        page = self._pages.get(addr // PAGE_SIZE)
        return page is not None and (addr % PAGE_SIZE) in page

    def is_initialized(self, addr: int) -> bool:
        """Written during execution, or backed by the image."""
        return self.is_written(addr) or addr in self._image

    # -- word access (executor-facing) ------------------------------------------------------

    def read(self, addr: int, size: int, endian: str) -> T.Term:
        """Read ``size`` bytes as one term in the given endianness.

        A word of concrete bytes is built as one constant, the term the
        simplifying constructors would fold the byte concat to (without
        simplification the concat is built as before)."""
        if T.get_pool().simplify:
            window = self.concrete_window(addr, size)
            if window is not None:
                return T.bv(int.from_bytes(
                    window, "little" if endian == "little" else "big"),
                    8 * size)
        byte_terms = [self.read_byte(addr + i) for i in range(size)]
        if endian == "little":
            byte_terms.reverse()            # concat wants MSB first
        return T.concat_many(byte_terms)

    def write(self, addr: int, value: T.Term, size: int, endian: str) -> None:
        if value.width != 8 * size:
            raise T.WidthError("write of %d-bit value with size %d"
                               % (value.width, size))
        for i in range(size):
            byte = T.extract(value, 8 * i + 7, 8 * i)
            if endian == "little":
                self.write_byte(addr + i, byte)
            else:
                self.write_byte(addr + size - 1 - i, byte)

    def concrete_window(self, addr: int, size: int) -> Optional[bytes]:
        """The bytes at ``addr`` if they are all concrete (fetch path).

        Unwritten bytes come straight from the image: no byte term is
        built for them.  A window (at most a page long) on pages with no
        written byte is read from the image once and then answered from
        a memo."""
        pages, image = self._pages, self._image
        if (addr // PAGE_SIZE not in pages
                and (addr + size - 1) // PAGE_SIZE not in pages):
            window = self._windows.get((addr, size))
            if window is None:
                window = self._windows[addr, size] = bytes(
                    image.get(a, 0) for a in range(addr, addr + size))
            return window
        out = bytearray()
        for i in range(size):
            page_index, offset = divmod(addr + i, PAGE_SIZE)
            page = pages.get(page_index)
            term = page.get(offset) if page is not None else None
            if term is None:
                out.append(image.get(addr + i, 0))
            elif term.is_const():
                out.append(term.value)
            else:
                return None
        return bytes(out)

    @property
    def pages_touched(self) -> int:
        return len(self._pages)
