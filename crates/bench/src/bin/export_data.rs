//! Exports the raw data behind every figure as CSV files, mirroring
//! the paper artifact's `output/` directory ("The raw data used for
//! the figures in this paper can be found in `output/` directory").
//! The rows come from [`bench::figure_data`]; this binary only writes
//! them.
//!
//! ```text
//! cargo run -p bench --release --bin export_data [-- <out_dir>]
//! ```

use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "output".to_owned());
    let dir = Path::new(&out);
    std::fs::create_dir_all(dir)?;
    for (name, contents) in bench::figure_data()? {
        let path = dir.join(name);
        std::fs::write(&path, &contents).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!(
            "wrote {} ({} lines)",
            path.display(),
            contents.lines().count()
        );
    }
    println!("\nAll figure data exported to {}/", dir.display());
    Ok(())
}
