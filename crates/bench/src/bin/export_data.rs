//! Exports the raw data behind every figure as CSV files, and each
//! experiment's report as `experiments/<name>.txt`, mirroring the
//! paper artifact's `output/` directory ("The raw data used for the
//! figures in this paper can be found in `output/` directory").
//! The files come from [`bench::figure_data`], the list the tier-1
//! pin compares with `output/`; this binary only writes them, so
//! regenerating the pin is this one command.
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
    for (name, contents) in bench::figure_data()? {
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
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
