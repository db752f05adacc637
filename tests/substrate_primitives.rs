//! Integration test for the graph layer's edge-list I/O through a real
//! file on disk (the `--graph-file` workload path of `mmvc run`).

use mmvc::graph::{generators, io};

#[test]
fn io_roundtrip_through_temp_file() {
    let g = generators::watts_strogatz(100, 6, 0.2, 4).unwrap();
    let path = std::env::temp_dir().join("mmvc_io_roundtrip_test.txt");
    {
        let file = std::fs::File::create(&path).unwrap();
        io::write_edge_list(&g, file).unwrap();
    }
    let back = io::read_edge_list(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(g, back);
}
