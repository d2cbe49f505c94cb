//! ASCII regenerations of the paper's illustrative figures:
//!
//! * **Figure 1** — a 2-D QoS space (response time × cost) with the skyline
//!   contour marked;
//! * **Figure 3(a)/(b)/(c)** — how the dimensional, grid, and angular
//!   partitionings carve the same space (each point shown as its partition
//!   id).
//!
//! These figures carry no measurements; the binary exists so that *every*
//! figure in the paper has a regenerator, and doubles as a visual sanity
//! check of the three partitioners.
//!
//! ```text
//! cargo run --release -p mr-skyline-bench --bin fig1_fig3_illustrations
//! ```

use mr_skyline_bench::arg_usize;
use qws_data::{generate_qws, QwsConfig};
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{block_bnl, BnlConfig};
use skyline_algos::partition::{
    AnglePartitioner, DimPartitioner, GridPartitioner, SpacePartitioner,
};
use skyline_algos::point::Point;
use std::collections::HashSet;

const WIDTH: usize = 68;
const HEIGHT: usize = 24;

struct Canvas {
    cells: Vec<Vec<char>>,
    min: [f64; 2],
    max: [f64; 2],
}

impl Canvas {
    fn new(points: &[Point]) -> Self {
        let mut min = [f64::INFINITY; 2];
        let mut max = [f64::NEG_INFINITY; 2];
        for p in points {
            for i in 0..2 {
                min[i] = min[i].min(p.coord(i));
                max[i] = max[i].max(p.coord(i));
            }
        }
        Self {
            cells: vec![vec![' '; WIDTH]; HEIGHT],
            min,
            max,
        }
    }

    fn plot(&mut self, p: &Point, ch: char) {
        let x = ((p.coord(0) - self.min[0]) / (self.max[0] - self.min[0]).max(1e-12)
            * (WIDTH - 1) as f64) as usize;
        // y axis points up: row 0 is the top
        let y = ((p.coord(1) - self.min[1]) / (self.max[1] - self.min[1]).max(1e-12)
            * (HEIGHT - 1) as f64) as usize;
        let row = HEIGHT - 1 - y.min(HEIGHT - 1);
        self.cells[row][x.min(WIDTH - 1)] = ch;
    }

    fn print(&self, title: &str) {
        println!("{title}");
        println!("cost");
        for row in &self.cells {
            println!("| {}", row.iter().collect::<String>());
        }
        println!("+{}> response time\n", "-".repeat(WIDTH));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--points", 300);
    let data = generate_qws(&QwsConfig::new(n, 2));
    let points = data.points();

    // Figure 1: dots + skyline contour
    let mut block = PointBlock::with_capacity(data.dim(), points.len());
    for p in points {
        block.push_point(p);
    }
    let skyline: HashSet<u64> = block_bnl(&block, &BnlConfig::default())
        .ids()
        .iter()
        .copied()
        .collect();
    let mut canvas = Canvas::new(points);
    for p in points {
        canvas.plot(p, '.');
    }
    for p in points {
        if skyline.contains(&p.id()) {
            canvas.plot(p, '#');
        }
    }
    canvas.print(&format!(
        "=== Figure 1: 2-D QoS space, {} services, skyline (#) of {} points ===",
        n,
        skyline.len()
    ));

    // Figure 3: the three partitionings, 4 partitions each
    let bounds = data.bounds();
    let partitioners: Vec<(&str, Box<dyn SpacePartitioner>)> = vec![
        (
            "=== Figure 3(a): dimensional partitioning (MR-Dim), 4 slabs ===",
            Box::new(DimPartitioner::fit(bounds, 4).expect("valid")),
        ),
        (
            "=== Figure 3(b): grid partitioning (MR-Grid), 2x2 cells ===",
            Box::new(GridPartitioner::fit(bounds, 4).expect("valid")),
        ),
        (
            "=== Figure 3(c): angular partitioning (MR-Angle), 4 sectors ===",
            Box::new(AnglePartitioner::fit(bounds, 4).expect("valid")),
        ),
    ];
    for (title, part) in partitioners {
        let mut canvas = Canvas::new(points);
        for p in points {
            let id = part.partition_of(p);
            let ch = char::from_digit(id as u32 % 10, 10).unwrap_or('?');
            canvas.plot(p, ch);
        }
        canvas.print(title);
    }
    println!("note how every angular sector (3c) reaches the origin corner, so each");
    println!("holds a stretch of the skyline contour — the paper's core observation.");
}
