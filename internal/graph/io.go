package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// The text format is the KONECT / SNAP edge-list dialect: one "u v" pair of
// whitespace-separated vertex ids per line; lines starting with '%' or '#'
// are comments. Vertex ids need not be dense — readers compact them.
//
// The binary format is a little-endian dump, in two versions:
//
//	v1: magic "DSDG" | u8 directed | u32 n | u64 m | m × (u32 u, u32 v)
//	v2: magic "DSD2" | u8 directed | u32 n | u64 m | m × (u32 u, u32 v) | u32 crc
//
// v2 appends a CRC32 (IEEE) footer computed over every preceding byte
// (magic included), so bit rot and truncation-at-a-record-boundary are
// detected instead of silently loading a wrong graph. Writers emit v2;
// readers accept both. Binary loads an order of magnitude faster than text
// for the benchmark datasets.
//
// Binary input is treated as untrusted: header counts are validated before
// any count-proportional allocation (a forged multi-gigabyte m cannot
// reserve more than one read chunk up front), every edge endpoint is range
// checked, and graphs are assembled with the non-panicking checked
// builders.

const (
	binaryMagic   = "DSDG"
	binaryMagicV2 = "DSD2"
)

const (
	// maxBinaryVertices caps header n: vertex ids are int32.
	maxBinaryVertices = math.MaxInt32
	// edgeChunk is how many records are read per chunk. A truncated file
	// with a forged edge count can cost at most one chunk (512 KiB) of
	// speculative allocation before the stream runs dry.
	edgeChunk = 1 << 16
	// maxUncorroboratedVertices is the largest header n accepted without
	// edge data to back it up: 8M vertices, a 64 MiB CSR offsets array.
	// Beyond it, n must be proportionate to the edges actually present
	// (vertexSlackPerEdge per record), so a 17-byte file cannot demand a
	// multi-gigabyte vertex array. Genuinely edge-free giant graphs must
	// use the text format.
	maxUncorroboratedVertices = 1 << 23
	vertexSlackPerEdge        = 64
)

// ReadEdgeList parses a text edge list, compacting arbitrary non-negative
// vertex ids into the dense range [0, n). It returns the arc/edge list, the
// number of distinct vertices, and the original ids (ids[i] is the original
// id of compact vertex i).
func ReadEdgeList(r io.Reader) (edges []Edge, n int, ids []int64, err error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOText); err != nil {
		return nil, 0, nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	compact := make(map[int64]int32)
	lineNo := 0
	lookup := func(raw int64) int32 {
		if c, ok := compact[raw]; ok {
			return c
		}
		c := int32(len(ids))
		compact[raw] = c
		ids = append(ids, raw)
		return c
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex id %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, Edge{lookup(u), lookup(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, len(ids), ids, nil
}

// ReadUndirected parses a text edge list into an Undirected graph.
func ReadUndirected(r io.Reader) (*Undirected, error) {
	edges, n, _, err := ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewUndirectedChecked(n, edges)
}

// ReadDirected parses a text edge list (each line "u v" is the arc u->v)
// into a Directed graph.
func ReadDirected(r io.Reader) (*Directed, error) {
	edges, n, _, err := ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewDirectedChecked(n, edges)
}

// WriteEdgeList writes g in the text format with a leading comment header.
func (g *Undirected) WriteEdgeList(w io.Writer) error {
	return writeEdgeList(w, false, g.N(), g.M(), g.adj)
}

// WriteEdgeList writes d in the text format (one arc per line).
func (d *Directed) WriteEdgeList(w io.Writer) error {
	return writeEdgeList(w, true, d.N(), d.M(), d.out)
}

// WriteBinary writes g in the compact binary format.
func (g *Undirected) WriteBinary(w io.Writer) error {
	return writeBinary(w, false, g.N(), g.M(), g.adj)
}

// WriteBinary writes d in the compact binary format.
func (d *Directed) WriteBinary(w io.Writer) error {
	return writeBinary(w, true, d.N(), d.M(), d.out)
}

// kind names a graph kind in headers and messages.
func kind(directed bool) string {
	if directed {
		return "directed"
	}
	return "undirected"
}

// writeEdgeList writes the header line and then one "u v" line per edge
// of c, the graph's only adjacency if undirected (each edge once, u < v)
// and its out-adjacency if directed.
func writeEdgeList(w io.Writer, directed bool, n int, m int64, c csr) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% %s n=%d m=%d\n", kind(directed), n, m)
	err := c.walk(!directed, func(u, v int32) error {
		_, err := fmt.Fprintf(bw, "%d %d\n", u, v)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeBinary writes the v2 header, one record per edge of c (as in
// writeEdgeList), and the CRC32 footer.
func writeBinary(w io.Writer, directed bool, n int, m int64, c csr) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	// Everything before the footer flows through the hash; crc32 writes
	// never fail, so the MultiWriter's error is bw's.
	hw := io.MultiWriter(bw, crc)
	var hdr [len(binaryMagicV2) + 13]byte
	copy(hdr[:], binaryMagicV2)
	if directed {
		hdr[4] = 1
	}
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(n))
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(m))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	err := c.walk(!directed, func(u, v int32) error {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
		_, err := hw.Write(rec[:])
		return err
	})
	if err != nil {
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readFull reads len(buf) bytes, feeding crc when non-nil (a v2 stream).
func readFull(r *bufio.Reader, buf []byte, crc hash.Hash32) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if crc != nil {
		crc.Write(buf)
	}
	return nil
}

// readBinaryHeader consumes and validates the magic and header. crc is
// non-nil for v2 files and already contains the magic bytes.
func readBinaryHeader(r *bufio.Reader) (directed bool, n int, m int64, crc hash.Hash32, err error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOHeader); err != nil {
		return false, 0, 0, nil, err
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return false, 0, 0, nil, fmt.Errorf("graph: reading binary magic: %w", err)
	}
	switch string(magic) {
	case binaryMagic:
	case binaryMagicV2:
		crc = crc32.NewIEEE()
		crc.Write(magic)
	default:
		return false, 0, 0, nil, fmt.Errorf("graph: bad magic %q, want %q or %q", magic, binaryMagic, binaryMagicV2)
	}
	var hdr [13]byte
	if err := readFull(r, hdr[:], crc); err != nil {
		return false, 0, 0, nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if hdr[0] > 1 {
		return false, 0, 0, nil, fmt.Errorf("graph: bad directed flag %d in header", hdr[0])
	}
	directed = hdr[0] != 0
	un := binary.LittleEndian.Uint32(hdr[1:5])
	m = int64(binary.LittleEndian.Uint64(hdr[5:13]))
	if un > maxBinaryVertices {
		return false, 0, 0, nil, fmt.Errorf("graph: header vertex count %d exceeds the int32 id space", un)
	}
	n = int(un)
	if m < 0 {
		return false, 0, 0, nil, fmt.Errorf("graph: negative edge count in header")
	}
	// A simple graph on n vertices holds at most n(n-1) arcs (half that
	// undirected, but the looser bound is enough to unmask forged counts
	// before any allocation happens).
	if maxM := int64(n) * int64(n-1); m > maxM {
		return false, 0, 0, nil, fmt.Errorf("graph: header edge count %d impossible for %d vertices", m, n)
	}
	return directed, n, m, crc, nil
}

// readBinaryEdges reads exactly m records in chunks. Allocation stays
// proportional to bytes actually delivered: one chunk of speculative
// capacity at most, with the edge slice growing by append as records
// arrive, so a forged m on a tiny file fails at the first short read.
func readBinaryEdges(r *bufio.Reader, n int, m int64, crc hash.Hash32) ([]Edge, error) {
	if err := faultinject.Hit(faultinject.SiteGraphIOEdges); err != nil {
		return nil, err
	}
	edges := make([]Edge, 0, min(m, edgeChunk))
	buf := make([]byte, 0, min(m, edgeChunk)*8)
	for read := int64(0); read < m; {
		cnt := min(m-read, edgeChunk)
		buf = buf[:cnt*8]
		if err := readFull(r, buf, crc); err != nil {
			return nil, fmt.Errorf("graph: reading edges %d..%d of %d: %w", read, read+cnt, m, err)
		}
		for i := int64(0); i < cnt; i++ {
			u := int32(binary.LittleEndian.Uint32(buf[i*8 : i*8+4]))
			v := int32(binary.LittleEndian.Uint32(buf[i*8+4 : i*8+8]))
			if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: edge %d (%d,%d) outside vertex range [0,%d)", read+i, u, v, n)
			}
			edges = append(edges, Edge{u, v})
		}
		read += cnt
	}
	return edges, nil
}

// finishBinary verifies the v2 CRC footer (crc nil means a v1 file, which
// has none) and corroborates the header vertex count against the data that
// actually arrived.
func finishBinary(r *bufio.Reader, n int, nEdges int, crc hash.Hash32) error {
	if crc != nil {
		var foot [4]byte
		if _, err := io.ReadFull(r, foot[:]); err != nil {
			return fmt.Errorf("graph: reading CRC32 footer: %w", err)
		}
		if want, got := binary.LittleEndian.Uint32(foot[:]), crc.Sum32(); want != got {
			return fmt.Errorf("graph: CRC32 mismatch: footer %08x, content %08x", want, got)
		}
	}
	if int64(n) > maxUncorroboratedVertices && int64(n) > vertexSlackPerEdge*(int64(nEdges)+1) {
		return fmt.Errorf("graph: header vertex count %d not plausible for %d edges; use the text format for graphs this sparse", n, nEdges)
	}
	return nil
}

// readBinary reads a graph file written by WriteBinary (either format
// version) and returns its vertex count and edge list. It rejects a file
// whose header marks the other kind, and treats the stream as untrusted:
// validated header, range checked endpoints, chunked allocation, CRC
// verification on v2.
func readBinary(r io.Reader, directed bool) (int, []Edge, error) {
	br := bufio.NewReader(r)
	fileDirected, n, m, crc, err := readBinaryHeader(br)
	if err != nil {
		return 0, nil, err
	}
	if fileDirected != directed {
		return 0, nil, fmt.Errorf("graph: binary file is %s, want %s", kind(fileDirected), kind(directed))
	}
	edges, err := readBinaryEdges(br, n, m, crc)
	if err != nil {
		return 0, nil, err
	}
	if err := finishBinary(br, n, len(edges), crc); err != nil {
		return 0, nil, err
	}
	return n, edges, nil
}

// ReadBinaryUndirected loads an Undirected graph written by WriteBinary
// (either format version). It rejects files whose header marks them
// directed, and treats the stream as untrusted (see readBinary).
func ReadBinaryUndirected(r io.Reader) (*Undirected, error) {
	n, edges, err := readBinary(r, false)
	if err != nil {
		return nil, err
	}
	return NewUndirectedChecked(n, edges)
}

// ReadBinaryDirected loads a Directed graph written by WriteBinary (either
// format version). It rejects files whose header marks them undirected,
// with the same untrusted-input validation as ReadBinaryUndirected.
func ReadBinaryDirected(r io.Reader) (*Directed, error) {
	n, edges, err := readBinary(r, true)
	if err != nil {
		return nil, err
	}
	return NewDirectedChecked(n, edges)
}
