package geo

import (
	"fmt"
	"math"
)

// CellID identifies a cell of a fixed-resolution global grid. The grid
// divides the world into equal-angle cells; resolution is carried inside the
// ID so that IDs from different resolutions never collide. It is the spatial
// key used by the stream engine for partitioning, by the patterns-of-life
// forecaster for discretising routes, and by the visual-analytics density
// builder for binning.
type CellID uint64

// Grid is an equal-angle global grid with square cells of SizeDeg degrees.
type Grid struct {
	SizeDeg float64
	cols    int
	rows    int
	res     uint64
}

// NewGrid returns a grid with the given cell size in degrees. Cell sizes
// below 0.001° (~100 m) are clamped to keep IDs well within 64 bits.
func NewGrid(sizeDeg float64) Grid {
	if sizeDeg < 0.001 {
		sizeDeg = 0.001
	}
	if sizeDeg > 90 {
		sizeDeg = 90
	}
	cols := int(360/sizeDeg) + 1
	rows := int(180/sizeDeg) + 1
	// Encode the resolution in the top bits: use the integer number of
	// thousandths of a degree, which is unique per grid in practice.
	res := uint64(sizeDeg * 1000)
	return Grid{SizeDeg: sizeDeg, cols: cols, rows: rows, res: res}
}

// Cell returns the ID of the cell containing p.
func (g Grid) Cell(p Point) CellID {
	col := int((p.Lon + 180) / g.SizeDeg)
	row := int((p.Lat + 90) / g.SizeDeg)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return CellID(g.res<<44 | uint64(row)<<22 | uint64(col))
}

// CellRowCol decodes the row and column of a cell ID produced by this grid.
func (g Grid) CellRowCol(id CellID) (row, col int) {
	return int(uint64(id) >> 22 & 0x3FFFFF), int(uint64(id) & 0x3FFFFF)
}

// CellCenter returns the centre point of the cell with the given ID.
func (g Grid) CellCenter(id CellID) Point {
	row, col := g.CellRowCol(id)
	return Point{
		Lat: -90 + (float64(row)+0.5)*g.SizeDeg,
		Lon: -180 + (float64(col)+0.5)*g.SizeDeg,
	}
}

// CellRect returns the bounding box of the cell with the given ID.
//
//lint:ignore deadexport TestLiveMatchesBruteForce probes the live grid with exact cell boxes
func (g Grid) CellRect(id CellID) Rect {
	row, col := g.CellRowCol(id)
	return Rect{
		MinLat: -90 + float64(row)*g.SizeDeg,
		MinLon: -180 + float64(col)*g.SizeDeg,
		MaxLat: -90 + float64(row+1)*g.SizeDeg,
		MaxLon: -180 + float64(col+1)*g.SizeDeg,
	}
}

// CellsInRect appends to dst the IDs of all cells intersecting r and returns
// the extended slice.
func (g Grid) CellsInRect(r Rect, dst []CellID) []CellID {
	r0, r1, c0, c1 := g.span(r)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			dst = append(dst, CellID(g.res<<44|uint64(row)<<22|uint64(col)))
		}
	}
	return dst
}

// NumCellsInRect returns len(CellsInRect(r, nil)) without building the
// list.
func (g Grid) NumCellsInRect(r Rect) int {
	r0, r1, c0, c1 := g.span(r)
	return max(0, r1-r0+1) * max(0, c1-c0+1)
}

// span returns the clamped row and column ranges of the cells r
// intersects; they are empty (r0 > r1) for an empty r.
func (g Grid) span(r Rect) (r0, r1, c0, c1 int) {
	if r.IsEmpty() {
		return 0, -1, 0, -1
	}
	c0 = max(int((r.MinLon+180)/g.SizeDeg), 0)
	c1 = min(int((r.MaxLon+180)/g.SizeDeg), g.cols-1)
	r0 = max(int((r.MinLat+90)/g.SizeDeg), 0)
	r1 = min(int((r.MaxLat+90)/g.SizeDeg), g.rows-1)
	return r0, r1, c0, c1
}

// Neighbors appends the IDs of the up-to-8 cells adjacent to id (fewer at
// the poles / antimeridian edges) and returns the extended slice.
func (g Grid) Neighbors(id CellID, dst []CellID) []CellID {
	row, col := g.CellRowCol(id)
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			nr, nc := row+dr, col+dc
			if nr < 0 || nr >= g.rows || nc < 0 || nc >= g.cols {
				continue
			}
			dst = append(dst, CellID(g.res<<44|uint64(nr)<<22|uint64(nc)))
		}
	}
	return dst
}

// String renders the cell ID with its resolution for debugging.
func (c CellID) String() string {
	return fmt.Sprintf("cell(res=%d,row=%d,col=%d)",
		uint64(c)>>44, uint64(c)>>22&0x3FFFFF, uint64(c)&0x3FFFFF)
}

// LocalPlane is a tangent-plane approximation centred at Origin: positions
// are expressed as east/north offsets in metres. It is accurate to well
// under 1% within a few hundred kilometres of the origin, which covers a
// surveillance area of interest, and it is what the fusion Kalman filters
// operate in.
type LocalPlane struct {
	Origin Point
	cosLat float64
}

// NewLocalPlane returns a tangent plane centred at origin.
func NewLocalPlane(origin Point) LocalPlane {
	return LocalPlane{Origin: origin, cosLat: cosDeg(origin.Lat)}
}

// Forward converts a geographic point to east/north metres.
func (lp LocalPlane) Forward(p Point) (east, north float64) {
	north = Radians(p.Lat-lp.Origin.Lat) * EarthRadius
	east = Radians(NormalizeLon(p.Lon-lp.Origin.Lon)) * EarthRadius * lp.cosLat
	return east, north
}

// Inverse converts east/north metres back to a geographic point.
func (lp LocalPlane) Inverse(east, north float64) Point {
	lat := lp.Origin.Lat + Degrees(north/EarthRadius)
	lon := lp.Origin.Lon
	if lp.cosLat > 1e-9 {
		lon += Degrees(east / (EarthRadius * lp.cosLat))
	}
	return Point{Lat: lat, Lon: NormalizeLon(lon)}
}

func cosDeg(d float64) float64 { return math.Cos(Radians(d)) }
